package transport

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// networkFactories lets every behavioral test run against both transports.
var networkFactories = map[string]func() Network{
	"memory": func() Network { return NewMemory() },
	"tcp":    func() Network { return NewTCP() },
}

func recvOne(t *testing.T, ep Endpoint) Message {
	t.Helper()
	select {
	case m, ok := <-ep.Recv():
		if !ok {
			t.Fatal("recv channel closed")
		}
		return m
	case <-time.After(5 * time.Second):
		t.Fatal("timed out waiting for message")
	}
	return Message{}
}

// textMsg builds a message whose payload is the text form of v.
func textMsg(from, to, kind string, v any) Message {
	return Message{From: from, To: to, Kind: kind, Payload: []byte(fmt.Sprint(v))}
}

func TestSendReceive(t *testing.T) {
	for name, mk := range networkFactories {
		t.Run(name, func(t *testing.T) {
			net := mk()
			defer net.Close()

			a, err := net.Endpoint("a")
			if err != nil {
				t.Fatal(err)
			}
			b, err := net.Endpoint("b")
			if err != nil {
				t.Fatal(err)
			}

			if err := a.Send(textMsg("a", "b", "greet", "x=7")); err != nil {
				t.Fatal(err)
			}
			got := recvOne(t, b)
			if got.From != "a" || got.To != "b" || got.Kind != "greet" {
				t.Errorf("got %+v", got)
			}
			if string(got.Payload) != "x=7" {
				t.Errorf("payload = %q", got.Payload)
			}
		})
	}
}

func TestBidirectionalAndMultiMessage(t *testing.T) {
	for name, mk := range networkFactories {
		t.Run(name, func(t *testing.T) {
			net := mk()
			defer net.Close()

			a, _ := net.Endpoint("a")
			b, _ := net.Endpoint("b")

			const n = 100
			for i := 0; i < n; i++ {
				if err := a.Send(textMsg("a", "b", "seq", i)); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < n; i++ {
				if got := string(recvOne(t, b).Payload); got != fmt.Sprint(i) {
					t.Fatalf("message %d arrived as %s (order broken)", i, got)
				}
			}

			if err := b.Send(textMsg("b", "a", "reply", "pong")); err != nil {
				t.Fatal(err)
			}
			if s := string(recvOne(t, a).Payload); s != "pong" {
				t.Errorf("reply = %q", s)
			}
		})
	}
}

func TestDuplicateEndpointName(t *testing.T) {
	for name, mk := range networkFactories {
		t.Run(name, func(t *testing.T) {
			net := mk()
			defer net.Close()
			if _, err := net.Endpoint("x"); err != nil {
				t.Fatal(err)
			}
			if _, err := net.Endpoint("x"); !errors.Is(err, ErrDuplicate) {
				t.Errorf("error = %v, want ErrDuplicate", err)
			}
		})
	}
}

func TestUnknownDestination(t *testing.T) {
	for name, mk := range networkFactories {
		t.Run(name, func(t *testing.T) {
			net := mk()
			defer net.Close()
			a, _ := net.Endpoint("a")
			m := textMsg("a", "ghost", "k", 1)
			if err := a.Send(m); !errors.Is(err, ErrUnknownDest) {
				t.Errorf("error = %v, want ErrUnknownDest", err)
			}
		})
	}
}

func TestEndpointAfterNetworkClose(t *testing.T) {
	for name, mk := range networkFactories {
		t.Run(name, func(t *testing.T) {
			net := mk()
			net.Close()
			if _, err := net.Endpoint("late"); !errors.Is(err, ErrClosed) {
				t.Errorf("error = %v, want ErrClosed", err)
			}
		})
	}
}

func TestConcurrentSenders(t *testing.T) {
	for name, mk := range networkFactories {
		t.Run(name, func(t *testing.T) {
			net := mk()
			defer net.Close()

			sink, _ := net.Endpoint("sink")
			const senders, each = 8, 50
			var wg sync.WaitGroup
			for s := 0; s < senders; s++ {
				ep, err := net.Endpoint(fmt.Sprintf("s%d", s))
				if err != nil {
					t.Fatal(err)
				}
				wg.Add(1)
				go func(ep Endpoint) {
					defer wg.Done()
					for i := 0; i < each; i++ {
						m := textMsg(ep.Name(), "sink", "n", i)
						if err := ep.Send(m); err != nil {
							t.Errorf("send: %v", err)
							return
						}
					}
				}(ep)
			}
			wg.Wait()
			for i := 0; i < senders*each; i++ {
				recvOne(t, sink)
			}
		})
	}
}

func TestMemoryDropRate(t *testing.T) {
	net := NewMemory()
	defer net.Close()
	a, _ := net.Endpoint("a")
	b, _ := net.Endpoint("b")
	net.SetDropRate(1.0, 1)

	m := textMsg("a", "b", "k", 1)
	if err := a.Send(m); !errors.Is(err, ErrDropped) {
		t.Errorf("error = %v, want ErrDropped", err)
	}
	net.SetDropRate(0, 1)
	if err := a.Send(m); err != nil {
		t.Errorf("send after healing: %v", err)
	}
	recvOne(t, b)
}

func TestMemoryPartition(t *testing.T) {
	net := NewMemory()
	defer net.Close()
	a, _ := net.Endpoint("a")
	b, _ := net.Endpoint("b")

	net.SetPartition("a", 1) // b stays in partition 0
	m := textMsg("a", "b", "k", 1)
	if err := a.Send(m); !errors.Is(err, ErrDropped) {
		t.Errorf("error = %v, want ErrDropped", err)
	}

	net.ClearPartitions()
	if err := a.Send(m); err != nil {
		t.Errorf("send after healing: %v", err)
	}
	recvOne(t, b)
}

func TestMemoryEndpointCloseReleasesName(t *testing.T) {
	net := NewMemory()
	defer net.Close()
	a, _ := net.Endpoint("a")
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := net.Endpoint("a"); err != nil {
		t.Errorf("name not released: %v", err)
	}
}

func TestTCPSurvivesPeerRestart(t *testing.T) {
	net := NewTCP()
	defer net.Close()
	a, _ := net.Endpoint("a")
	b, _ := net.Endpoint("b")

	m := textMsg("a", "b", "k", 1)
	if err := a.Send(m); err != nil {
		t.Fatal(err)
	}
	recvOne(t, b)

	// Close b: the cached conn in a eventually fails, a drops it, and a
	// send to a fresh endpoint still works.
	bAddr := b.(*tcpEndpoint).Addr()
	_ = bAddr
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	// Sending may succeed (buffered) or fail; either way it must not hang
	// and must not panic. Drain any error.
	_ = a.Send(m)
	_ = a.Send(m)
}

func TestRecvClosedAfterClose(t *testing.T) {
	for name, mk := range networkFactories {
		t.Run(name, func(t *testing.T) {
			net := mk()
			a, _ := net.Endpoint("a")
			net.Close()
			select {
			case _, ok := <-a.Recv():
				if ok {
					t.Error("unexpected message")
				}
			case <-time.After(5 * time.Second):
				t.Error("Recv not closed after network close")
			}
		})
	}
}
