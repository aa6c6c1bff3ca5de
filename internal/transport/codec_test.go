package transport

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	stdnet "net"
	"strings"
	"testing"
	"time"
)

func TestMessageBinaryRoundTrip(t *testing.T) {
	cases := []Message{
		{},
		{From: "a", To: "b", Kind: "k"},
		{From: "flow/12", To: "node/3", Kind: "rate", Payload: []byte(`{"x":1}`)},
		{From: "n", To: "m", Kind: "blob", Payload: bytes.Repeat([]byte{0, 1, 0xff}, 100)},
		{From: strings.Repeat("long", 100), To: "t", Kind: "", Payload: []byte{binaryTag}},
	}
	for i, msg := range cases {
		enc := AppendMessage(nil, &msg)
		if len(enc) != BinarySize(&msg) {
			t.Errorf("case %d: len(enc)=%d, BinarySize=%d", i, len(enc), BinarySize(&msg))
		}
		got, n, err := DecodeMessage(enc)
		if err != nil {
			t.Fatalf("case %d: decode: %v", i, err)
		}
		if n != len(enc) {
			t.Errorf("case %d: consumed %d of %d bytes", i, n, len(enc))
		}
		if got.From != msg.From || got.To != msg.To || got.Kind != msg.Kind ||
			!bytes.Equal(got.Payload, msg.Payload) {
			t.Errorf("case %d: got %+v, want %+v", i, got, msg)
		}
	}
}

func TestDecodeMessageConcatenated(t *testing.T) {
	a := Message{From: "a", To: "b", Kind: "one", Payload: []byte(`1`)}
	b := Message{From: "b", To: "c", Kind: "two"}
	enc := AppendMessage(AppendMessage(nil, &a), &b)

	got1, n1, err := DecodeMessage(enc)
	if err != nil {
		t.Fatal(err)
	}
	got2, n2, err := DecodeMessage(enc[n1:])
	if err != nil {
		t.Fatal(err)
	}
	if n1+n2 != len(enc) {
		t.Errorf("consumed %d+%d of %d", n1, n2, len(enc))
	}
	if got1.Kind != "one" || got2.Kind != "two" {
		t.Errorf("kinds: %q %q", got1.Kind, got2.Kind)
	}
}

func TestDecodeMessageRejectsCorrupt(t *testing.T) {
	good := AppendMessage(nil, &Message{From: "a", To: "b", Kind: "k", Payload: []byte("xyz")})

	// Every truncation must error, never panic or over-read.
	for n := 0; n < len(good); n++ {
		if _, _, err := DecodeMessage(good[:n]); !errors.Is(err, ErrCorruptFrame) {
			t.Errorf("truncated at %d: err = %v, want ErrCorruptFrame", n, err)
		}
	}
	// Wrong tag.
	if _, _, err := DecodeMessage([]byte(`{"from":"a"}`)); !errors.Is(err, ErrCorruptFrame) {
		t.Errorf("JSON body: err = %v, want ErrCorruptFrame", err)
	}
	// Length field claiming far more bytes than present must not allocate
	// or over-read.
	huge := []byte{binaryTag, 0xff, 0xff, 0xff, 0xff, 0x7f}
	if _, _, err := DecodeMessage(huge); !errors.Is(err, ErrCorruptFrame) {
		t.Errorf("huge length: err = %v, want ErrCorruptFrame", err)
	}
}

func TestDecodeMessageDoesNotAliasInput(t *testing.T) {
	enc := AppendMessage(nil, &Message{From: "a", To: "b", Kind: "k", Payload: []byte("data")})
	got, _, err := DecodeMessage(enc)
	if err != nil {
		t.Fatal(err)
	}
	for i := range enc {
		enc[i] = 0xee
	}
	if string(got.Payload) != "data" || got.From != "a" {
		t.Error("decoded message aliases the input buffer")
	}
}

func TestCursorPrimitives(t *testing.T) {
	var buf []byte
	buf = AppendFloat64(buf, math.MaxFloat64)
	buf = AppendFloat64(buf, math.Copysign(0, -1))

	c := Cursor{Data: buf}
	if v := c.Float64(); v != math.MaxFloat64 {
		t.Errorf("float = %v", v)
	}
	if v := c.Float64(); v != 0 || !math.Signbit(v) {
		t.Errorf("negative zero lost: %v", v)
	}
	if c.Err() != nil || c.Rest() != 0 {
		t.Errorf("err=%v rest=%d", c.Err(), c.Rest())
	}
	// Reading past the end errors and stays erred.
	if c.Float64(); c.Err() == nil {
		t.Error("read past end did not error")
	}
	if c.Byte() != 0 || c.Uvarint() != 0 || c.Bytes() != nil {
		t.Error("reads after error must return zero values")
	}

	// Int rejects values beyond int32.
	c2 := Cursor{Data: AppendMessage(nil, &Message{})}
	_ = c2
	big := Cursor{Data: []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}}
	if big.Int(); big.Err() == nil {
		t.Error("Int accepted out-of-range value")
	}
}

func TestAppendMessageZeroAlloc(t *testing.T) {
	msg := Message{From: "flow/42", To: "node/7", Kind: "rate", Payload: []byte(`{"round":9,"rate":1.5}`)}
	buf := make([]byte, 0, 256)
	allocs := testing.AllocsPerRun(100, func() {
		buf = AppendMessage(buf[:0], &msg)
	})
	if allocs != 0 {
		t.Errorf("AppendMessage allocs/op = %v, want 0", allocs)
	}
}

// TestTCPBinaryWire runs traffic over TCP and checks payloads arrive
// intact and in order.
func TestTCPBinaryWire(t *testing.T) {
	net := NewTCP()
	defer net.Close()

	a, _ := net.Endpoint("a")
	b, _ := net.Endpoint("b")
	for i := 0; i < 50; i++ {
		if err := a.Send(textMsg("a", "b", "seq", i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 50; i++ {
		if got := string(recvOne(t, b).Payload); got != fmt.Sprint(i) {
			t.Fatalf("message %d arrived as %s", i, got)
		}
	}
}

// TestTCPRejectsLegacyFrame: a frame in the retired 4-byte-length + JSON
// layout (first header byte 0x00) must never be parsed. The reader drops
// the connection, so a valid frame queued behind it on the same stream is
// lost too, while a fresh connection still delivers.
func TestTCPRejectsLegacyFrame(t *testing.T) {
	net := NewTCP()
	defer net.Close()
	a, _ := net.Endpoint("a")
	b, _ := net.Endpoint("b")

	conn, err := stdnet.Dial("tcp", b.(*tcpEndpoint).Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	legacy, err := json.Marshal(textMsg("x", "b", "legacy", 1))
	if err != nil {
		t.Fatal(err)
	}
	frame := binary.BigEndian.AppendUint32(nil, uint32(len(legacy)))
	frame = append(frame, legacy...)
	valid := AppendMessage(nil, &Message{From: "x", To: "b", Kind: "after"})
	frame = binary.AppendUvarint(frame, uint64(len(valid)))
	frame = append(frame, valid...)
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	// The reader closes its side; our next read sees EOF (or a reset).
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); err == nil {
		t.Error("connection still open after a legacy frame header")
	}

	if err := a.Send(textMsg("a", "b", "fresh", 2)); err != nil {
		t.Fatal(err)
	}
	if got := recvOne(t, b); got.Kind != "fresh" {
		t.Errorf("first delivered frame has kind %q, want fresh", got.Kind)
	}
}

func TestTCPBinaryFramesSmaller(t *testing.T) {
	msg := Message{From: "flow/42", To: "node/7", Kind: "rate",
		Payload: []byte(`{"round":9,"flow":42,"rate":1.52}`)}
	jsonFrame, err := json.Marshal(msg)
	if err != nil {
		t.Fatal(err)
	}
	jsonLen := 4 + len(jsonFrame)
	binLen := 1 + BinarySize(&msg) // 1-byte uvarint header at this size
	if binLen >= jsonLen {
		t.Errorf("binary frame %dB not smaller than JSON frame %dB", binLen, jsonLen)
	}
}

func TestMemoryDelay(t *testing.T) {
	net := NewMemory()
	defer net.Close()
	a, _ := net.Endpoint("a")
	b, _ := net.Endpoint("b")
	net.SetDelay(20 * time.Millisecond)

	m := textMsg("a", "b", "k", 1)
	start := time.Now()
	if err := a.Send(m); err != nil {
		t.Fatal(err)
	}
	if time.Since(start) > 10*time.Millisecond {
		t.Error("Send blocked for the delay instead of returning")
	}
	recvOne(t, b)
	if elapsed := time.Since(start); elapsed < 15*time.Millisecond {
		t.Errorf("message arrived after %v, want >= ~20ms", elapsed)
	}
	if st := net.NetStats(); st.Delivered != 1 {
		t.Errorf("stats = %+v", st)
	}

	// A delayed message whose destination closes before the timer fires
	// counts as dropped, and nothing panics.
	if err := a.Send(m); err != nil {
		t.Fatal(err)
	}
	_ = b.Close()
	time.Sleep(50 * time.Millisecond)
	if st := net.NetStats(); st.Dropped != 1 {
		t.Errorf("late drop not counted: %+v", st)
	}
	net.SetDelay(0)
}

func TestMemoryDropExempt(t *testing.T) {
	net := NewMemory()
	defer net.Close()
	ctrl, _ := net.Endpoint("ctrl")
	a, _ := net.Endpoint("a")
	b, _ := net.Endpoint("b")
	net.SetDropRate(1.0, 7)
	net.SetDropExempt("ctrl")

	m := textMsg("a", "b", "k", 1)
	if err := a.Send(m); !errors.Is(err, ErrDropped) {
		t.Errorf("non-exempt send: %v, want ErrDropped", err)
	}
	cm := textMsg("ctrl", "b", "k", 2)
	if err := ctrl.Send(cm); err != nil {
		t.Errorf("exempt send dropped: %v", err)
	}
	recvOne(t, b)

	// Exemption does not bypass partitions.
	net.SetPartition("ctrl", 1)
	if err := ctrl.Send(cm); !errors.Is(err, ErrDropped) {
		t.Errorf("partitioned exempt send: %v, want ErrDropped", err)
	}
}

// FuzzDecodeMessage drives the binary frame decoder with arbitrary bytes:
// it must either decode within bounds or error, never panic or over-read.
func FuzzDecodeMessage(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{binaryTag})
	f.Add([]byte(`{"from":"a","to":"b"}`))
	f.Add(AppendMessage(nil, &Message{From: "a", To: "b", Kind: "k", Payload: []byte(`{"x":1}`)}))
	f.Add([]byte{binaryTag, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		msg, n, err := DecodeMessage(data)
		if err != nil {
			return
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("consumed %d bytes of %d", n, len(data))
		}
		// A successful decode must survive a re-encode/decode round trip.
		// (Byte equality is too strict: binary.Uvarint accepts
		// non-canonical varint paddings that re-encode shorter.)
		re := AppendMessage(nil, &msg)
		msg2, n2, err := DecodeMessage(re)
		if err != nil || n2 != len(re) {
			t.Fatalf("re-decode failed: n=%d err=%v", n2, err)
		}
		if msg2.From != msg.From || msg2.To != msg.To || msg2.Kind != msg.Kind ||
			!bytes.Equal(msg2.Payload, msg.Payload) {
			t.Fatalf("round trip mismatch: %+v vs %+v", msg, msg2)
		}
	})
}

func BenchmarkAppendMessage(b *testing.B) {
	msg := Message{From: "flow/42", To: "node/7", Kind: "rate",
		Payload: []byte(`{"round":9,"flow":42,"rate":1.52,"active":true}`)}
	buf := make([]byte, 0, 256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = AppendMessage(buf[:0], &msg)
	}
}
