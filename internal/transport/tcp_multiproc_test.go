package transport

import (
	"errors"
	"testing"
)

// TestListenTCPWithExternalRegistry exercises the multi-process-style API:
// endpoints constructed directly with ListenTCP and a hand-rolled name
// resolver, as separate processes would do with a shared registry.
func TestListenTCPWithExternalRegistry(t *testing.T) {
	registry := make(map[string]string)
	resolve := func(name string) (string, error) {
		addr, ok := registry[name]
		if !ok {
			return "", ErrUnknownDest
		}
		return addr, nil
	}

	a, err := ListenTCP("proc-a", "127.0.0.1:0", resolve)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := ListenTCP("proc-b", "127.0.0.1:0", resolve)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	registry["proc-a"] = a.(*tcpEndpoint).Addr()
	registry["proc-b"] = b.(*tcpEndpoint).Addr()

	if err := a.Send(textMsg("proc-a", "proc-b", "ping", 42)); err != nil {
		t.Fatal(err)
	}
	got := recvOne(t, b)
	if string(got.Payload) != "42" || got.From != "proc-a" {
		t.Errorf("got %+v", got)
	}

	// Unregistered peers resolve to an error.
	msg := textMsg("proc-a", "proc-c", "ping", 1)
	if err := a.Send(msg); !errors.Is(err, ErrUnknownDest) {
		t.Errorf("error = %v, want ErrUnknownDest", err)
	}
}

func TestListenTCPBadAddress(t *testing.T) {
	if _, err := ListenTCP("x", "256.0.0.1:99999", func(string) (string, error) {
		return "", ErrUnknownDest
	}); err == nil {
		t.Error("bad listen address accepted")
	}
}

func TestMemoryNetStatsDirect(t *testing.T) {
	net := NewMemory()
	defer net.Close()
	a, _ := net.Endpoint("a")
	b, _ := net.Endpoint("b")

	msg := textMsg("a", "b", "k", "payload")
	if err := a.Send(msg); err != nil {
		t.Fatal(err)
	}
	recvOne(t, b)

	stats := net.NetStats()
	if stats.Delivered != 1 || stats.Bytes == 0 || stats.Dropped != 0 {
		t.Errorf("stats = %+v", stats)
	}

	net.SetDropRate(1, 3)
	_ = a.Send(msg)
	if got := net.NetStats().Dropped; got != 1 {
		t.Errorf("dropped = %d, want 1", got)
	}
}
