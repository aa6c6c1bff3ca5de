package transport

import (
	"errors"
	"testing"
)

// Every TCP frame is binary: the per-wire split reads JSON zero and
// Binary equal to the totals.
func TestTCPPerWireStats(t *testing.T) {
	net := NewTCP()
	defer net.Close()

	a, _ := net.Endpoint("a")
	b, _ := net.Endpoint("b")
	c, _ := net.Endpoint("c")
	for i := 0; i < 3; i++ {
		if err := a.Send(textMsg("a", "b", "from-a", i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ {
		if err := c.Send(textMsg("c", "b", "from-c", i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		recvOne(t, b)
	}

	st := net.NetStats()
	if st.Delivered != 5 || st.Bytes == 0 {
		t.Fatalf("Delivered = %d, Bytes = %d, want 5 and > 0", st.Delivered, st.Bytes)
	}
	if st.JSON != (WireStats{}) {
		t.Errorf("JSON = %+v, want zero", st.JSON)
	}
	if st.Binary != (WireStats{Frames: st.Delivered, Bytes: st.Bytes}) {
		t.Errorf("Binary = %+v, want the totals %d / %d", st.Binary, st.Delivered, st.Bytes)
	}
}

// The in-memory transport carries opaque payloads and counts every one as
// binary, whatever its first byte.
func TestMemoryPerWireStats(t *testing.T) {
	net := NewMemory()
	defer net.Close()

	a, _ := net.Endpoint("a")
	if _, err := net.Endpoint("b"); err != nil {
		t.Fatal(err)
	}

	payloads := [][]byte{
		[]byte(`{"round":1}`),
		[]byte(`[1,2,3]`),
		{0x01, 0x02, 0x03},
		{'B', 0x00},
		nil,
	}
	for _, p := range payloads {
		if err := a.Send(Message{To: "b", Kind: "k", Payload: p}); err != nil {
			t.Fatal(err)
		}
	}

	st := net.NetStats()
	if st.Delivered != uint64(len(payloads)) || st.Bytes != 23 {
		t.Fatalf("Delivered = %d, Bytes = %d, want %d and 23", st.Delivered, st.Bytes, len(payloads))
	}
	if st.JSON != (WireStats{}) {
		t.Errorf("JSON = %+v, want zero", st.JSON)
	}
	if st.Binary != (WireStats{Frames: st.Delivered, Bytes: st.Bytes}) {
		t.Errorf("Binary = %+v, want the totals", st.Binary)
	}
}

// A send to a full inbox is refused, not blocked on, and counts as a drop.
func TestMemoryFullInboxCountsDrop(t *testing.T) {
	net := NewMemory()
	defer net.Close()

	a, _ := net.Endpoint("a")
	if _, err := net.Endpoint("b"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < memoryBuffer; i++ {
		if err := a.Send(Message{To: "b", Kind: "k"}); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	if err := a.Send(Message{To: "b", Kind: "k"}); err == nil {
		t.Fatal("send to a full inbox succeeded")
	}
	st := net.NetStats()
	if st.Delivered != memoryBuffer || st.Dropped != 1 {
		t.Errorf("Delivered = %d, Dropped = %d, want %d and 1", st.Delivered, st.Dropped, memoryBuffer)
	}
}

// One-way blocks drop exactly the configured direction and heal on
// request (and with ClearPartitions).
func TestMemoryOneWayBlock(t *testing.T) {
	net := NewMemory()
	defer net.Close()

	a, _ := net.Endpoint("a")
	b, _ := net.Endpoint("b")

	net.SetOneWay("a", "b", true)
	if err := a.Send(Message{To: "b", Kind: "k"}); !errors.Is(err, ErrDropped) {
		t.Fatalf("blocked direction: err = %v, want ErrDropped", err)
	}
	if err := b.Send(Message{To: "a", Kind: "k"}); err != nil {
		t.Fatalf("reverse direction: err = %v, want nil", err)
	}
	recvOne(t, a)

	net.SetOneWay("a", "b", false)
	if err := a.Send(Message{To: "b", Kind: "k"}); err != nil {
		t.Fatalf("after unblock: err = %v, want nil", err)
	}
	recvOne(t, b)

	net.SetOneWay("a", "b", true)
	net.ClearPartitions()
	if err := a.Send(Message{To: "b", Kind: "k"}); err != nil {
		t.Fatalf("after ClearPartitions: err = %v, want nil", err)
	}
	if got := net.NetStats().Dropped; got != 1 {
		t.Errorf("Dropped = %d, want 1", got)
	}
}
