package dist

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"repro/internal/model"
	"repro/internal/transport"
)

// distPayloadCases enumerates representative dist payloads, including the
// map-edge cases (nil vs non-empty).
func distPayloadCases() (rates []rateMsg, reports []reportMsg, ctrls []ctrlMsg) {
	rates = []rateMsg{
		{},
		{Round: 1, Flow: 0, Rate: 0, Active: true},
		{Round: 7, Flow: 5, Rate: 123.456, Active: true},
		{Round: 1 << 20, Flow: 671, Rate: 1e-12, Active: false},
		{Round: 3, Flow: 2, Rate: 1.7976931348623157e308, Active: true},
	}
	reports = []reportMsg{
		{},
		{Round: 1, Node: 0, Price: 0.5, Used: 10, BestBC: 2},
		{
			Round: 42, Node: 17, Price: 3.25, Used: 99.5, BestBC: 0.125,
			Populations: map[model.ClassID]int{0: 5, 3: 0, 19: 1200},
		},
		{
			Round: 9, Node: 2, Price: 1e-9,
			Populations: map[model.ClassID]int{7: 3},
			Deliveries:  map[model.ClassID]float64{7: 0.75},
			LinkPrices:  map[model.LinkID]float64{0: 0.001, 4: 12.5},
		},
		{Round: 2, Node: 1, LinkPrices: map[model.LinkID]float64{3: 0}},
	}
	ctrls = []ctrlMsg{
		{},
		{RunUntil: 100},
		{Leave: true},
		{Join: true},
		{Stop: true},
		{RunUntil: 1 << 30, Leave: true, Join: true, Stop: true},
	}
	return rates, reports, ctrls
}

// TestDistPayloadRoundTrip is the codec property test: every payload must
// decode to identical values (nil maps included).
func TestDistPayloadRoundTrip(t *testing.T) {
	rates, reports, ctrls := distPayloadCases()
	roundTrip := func(t *testing.T, v any, payload []byte, decode func(transport.Message) (any, error)) {
		t.Helper()
		got, err := decode(transport.Message{Payload: payload})
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if !reflect.DeepEqual(got, v) {
			t.Fatalf("round trip: got %+v, want %+v", got, v)
		}
	}
	for _, rm := range rates {
		roundTrip(t, rm, rm.appendBinary(nil), func(m transport.Message) (any, error) { return decodeRate(m) })
	}
	for _, rm := range reports {
		roundTrip(t, rm, rm.appendBinary(nil), func(m transport.Message) (any, error) { return decodeReport(m) })
	}
	for _, cm := range ctrls {
		roundTrip(t, cm, cm.appendBinary(nil), func(m transport.Message) (any, error) { return decodeCtrl(m) })
	}
}

// TestDistPayloadDecodeRejectsCorruption: every truncation of a binary
// payload, and trailing garbage after it, must error — never panic or
// silently succeed.
func TestDistPayloadDecodeRejectsCorruption(t *testing.T) {
	_, reports, _ := distPayloadCases()
	full := reports[3].appendBinary(nil)
	for cut := 0; cut < len(full); cut++ {
		if _, err := decodeReport(transport.Message{Payload: full[:cut:cut]}); err == nil {
			t.Errorf("truncation at %d decoded successfully", cut)
		}
	}
	if _, err := decodeReport(transport.Message{Payload: append(bytes.Clone(full), 0xFF)}); err == nil {
		t.Error("trailing garbage decoded successfully")
	}
	if _, err := decodeRate(transport.Message{Payload: []byte{reportTag, 1, 2}}); err == nil {
		t.Error("wrong tag accepted by decodeRate")
	}
	// A huge declared map count must not allocate or over-read.
	huge := []byte{reportTag, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0x7F}
	if _, err := decodeReport(transport.Message{Payload: huge}); err == nil {
		t.Error("oversized population count accepted")
	}
	// JSON payloads of the retired wire format are corrupt frames.
	for _, p := range [][]byte{[]byte(`{"round":1,"flow":0,"rate":2,"active":true}`), []byte(`[]`)} {
		m := transport.Message{Payload: p}
		if _, err := decodeRate(m); !errors.Is(err, transport.ErrCorruptFrame) {
			t.Errorf("decodeRate(%s) = %v, want ErrCorruptFrame", p, err)
		}
		if _, err := decodeReport(m); !errors.Is(err, transport.ErrCorruptFrame) {
			t.Errorf("decodeReport(%s) = %v, want ErrCorruptFrame", p, err)
		}
		if _, err := decodeCtrl(m); !errors.Is(err, transport.ErrCorruptFrame) {
			t.Errorf("decodeCtrl(%s) = %v, want ErrCorruptFrame", p, err)
		}
		if _, err := decodeBatch(p); !errors.Is(err, transport.ErrCorruptFrame) {
			t.Errorf("decodeBatch(%s) = %v, want ErrCorruptFrame", p, err)
		}
	}
}

// TestEncodeDecodeBatch round-trips a gateway batch frame.
func TestEncodeDecodeBatch(t *testing.T) {
	msgs := []transport.Message{
		{From: "flow/1", To: "node/0", Kind: rateKind, Payload: rateMsg{Round: 3, Flow: 1, Rate: 2.5, Active: true}.appendBinary(nil)},
		{From: "node/0", To: "flow/1", Kind: reportKind, Payload: reportMsg{Round: 3, Node: 0, Price: 1.5}.appendBinary(nil)},
		{From: "cluster-ctrl", To: "flow/1", Kind: ctrlKind, Payload: ctrlMsg{Stop: true}.appendBinary(nil)},
	}
	got, err := decodeBatch(encodeBatch(msgs))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, msgs) {
		t.Fatalf("batch round trip: got %+v, want %+v", got, msgs)
	}
	if got, err := decodeBatch(nil); err != nil || got != nil {
		t.Errorf("empty batch: %v, %v", got, err)
	}
}

// FuzzDecodeDistPayloads throws arbitrary bytes at every dist payload
// decoder: none may panic or over-read, and any successfully decoded
// payload must survive a canonical re-encode/decode round trip.
func FuzzDecodeDistPayloads(f *testing.F) {
	rates, reports, ctrls := distPayloadCases()
	for _, rm := range rates {
		f.Add(rm.appendBinary(nil))
	}
	for _, rm := range reports {
		f.Add(rm.appendBinary(nil))
	}
	for _, cm := range ctrls {
		f.Add(cm.appendBinary(nil))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m := transport.Message{Payload: data}
		if rm, err := decodeRate(m); err == nil {
			again, err := decodeRate(transport.Message{Payload: rm.appendBinary(nil)})
			if err != nil || !reflect.DeepEqual(again, rm) {
				t.Fatalf("rate re-encode mismatch: %+v vs %+v (%v)", again, rm, err)
			}
		}
		if rm, err := decodeReport(m); err == nil {
			again, err := decodeReport(transport.Message{Payload: rm.appendBinary(nil)})
			if err != nil || !reflect.DeepEqual(again, rm) {
				t.Fatalf("report re-encode mismatch: %+v vs %+v (%v)", again, rm, err)
			}
		}
		if cm, err := decodeCtrl(m); err == nil {
			again, err := decodeCtrl(transport.Message{Payload: cm.appendBinary(nil)})
			if err != nil || !reflect.DeepEqual(again, cm) {
				t.Fatalf("ctrl re-encode mismatch: %+v vs %+v (%v)", again, cm, err)
			}
		}
		if msgs, err := decodeBatch(data); err == nil {
			again, err := decodeBatch(encodeBatch(msgs))
			if err != nil || !reflect.DeepEqual(again, msgs) {
				t.Fatalf("batch re-encode mismatch (%v)", err)
			}
		}
	})
}
