package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// binaryTag is the first byte of an encoded message body.
const binaryTag = 'B'

// ErrCorruptFrame reports a binary body that could not be decoded.
var ErrCorruptFrame = errors.New("transport: corrupt frame")

// AppendMessage appends the binary wire encoding of msg to dst and
// returns the extended slice. The encoding is:
//
//	'B' | str(From) | str(To) | str(Kind) | bytes(Payload)
//
// where str and bytes are uvarint-length-prefixed byte strings. The
// encode path performs no allocations beyond growing dst.
func AppendMessage(dst []byte, msg *Message) []byte {
	dst = append(dst, binaryTag)
	dst = appendLenBytes(dst, msg.From)
	dst = appendLenBytes(dst, msg.To)
	dst = appendLenBytes(dst, msg.Kind)
	dst = binary.AppendUvarint(dst, uint64(len(msg.Payload)))
	return append(dst, msg.Payload...)
}

// BinarySize returns the encoded size of msg under AppendMessage, for
// exact-capacity buffer sizing.
func BinarySize(msg *Message) int {
	return 1 +
		uvarintLen(uint64(len(msg.From))) + len(msg.From) +
		uvarintLen(uint64(len(msg.To))) + len(msg.To) +
		uvarintLen(uint64(len(msg.Kind))) + len(msg.Kind) +
		uvarintLen(uint64(len(msg.Payload))) + len(msg.Payload)
}

func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

func appendLenBytes(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// DecodeMessage decodes one binary message from the front of data and
// returns it along with the number of bytes consumed, so callers can
// iterate over concatenated messages (batch payloads). The returned
// message's strings and payload are copies: they do not alias data.
// Truncated or corrupt input returns ErrCorruptFrame-wrapped errors and
// never panics or reads past len(data).
func DecodeMessage(data []byte) (Message, int, error) {
	var msg Message
	c := Cursor{Data: data}
	if tag := c.Byte(); tag != binaryTag {
		return Message{}, 0, fmt.Errorf("%w: bad tag 0x%02x", ErrCorruptFrame, tag)
	}
	msg.From = c.String()
	msg.To = c.String()
	msg.Kind = c.String()
	if payload := c.Bytes(); len(payload) > 0 {
		msg.Payload = append([]byte(nil), payload...)
	}
	if err := c.Err(); err != nil {
		return Message{}, 0, err
	}
	return msg, c.Off, nil
}

// Cursor is a bounds-checked reader over a binary-encoded buffer. All
// reads return zero values once an error has occurred; check Err after a
// decode sequence. It never reads past len(Data).
type Cursor struct {
	Data []byte
	Off  int
	err  error
}

// Err returns the first decode error, if any.
func (c *Cursor) Err() error { return c.err }

// Rest returns the number of unread bytes.
func (c *Cursor) Rest() int { return len(c.Data) - c.Off }

func (c *Cursor) fail(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf("%w: %s", ErrCorruptFrame, fmt.Sprintf(format, args...))
	}
}

// Byte reads one byte.
func (c *Cursor) Byte() byte {
	if c.err != nil {
		return 0
	}
	if c.Off >= len(c.Data) {
		c.fail("truncated at byte %d", c.Off)
		return 0
	}
	b := c.Data[c.Off]
	c.Off++
	return b
}

// Uvarint reads an unsigned varint.
func (c *Cursor) Uvarint() uint64 {
	if c.err != nil {
		return 0
	}
	v, n := binary.Uvarint(c.Data[c.Off:])
	if n <= 0 {
		c.fail("bad uvarint at byte %d", c.Off)
		return 0
	}
	c.Off += n
	return v
}

// Int reads a uvarint and checks it fits a non-negative int.
func (c *Cursor) Int() int {
	v := c.Uvarint()
	if v > math.MaxInt32 {
		c.fail("int out of range: %d", v)
		return 0
	}
	return int(v)
}

// Float64 reads a fixed 8-byte little-endian float.
func (c *Cursor) Float64() float64 {
	if c.err != nil {
		return 0
	}
	if c.Rest() < 8 {
		c.fail("truncated float at byte %d", c.Off)
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(c.Data[c.Off:]))
	c.Off += 8
	return v
}

// Bytes reads a uvarint-length-prefixed byte string. The returned slice
// aliases the cursor's buffer; copy it if it must outlive Data. The
// length is validated against the remaining bytes before use, so a
// corrupt length can neither over-read nor trigger a huge allocation.
func (c *Cursor) Bytes() []byte {
	n := c.Uvarint()
	if c.err != nil {
		return nil
	}
	if n > uint64(c.Rest()) {
		c.fail("length %d exceeds %d remaining bytes", n, c.Rest())
		return nil
	}
	b := c.Data[c.Off : c.Off+int(n)]
	c.Off += int(n)
	return b
}

// String reads a uvarint-length-prefixed string (copied, does not alias).
func (c *Cursor) String() string {
	return string(c.Bytes())
}

// AppendFloat64 appends v as fixed 8-byte little-endian bits.
func AppendFloat64(dst []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
}
