// Package wire is the framed protocol between a dbproc client and
// cmd/procserved (docs/SERVING.md).
//
// A frame is a 4-byte big-endian length, one type byte, and a payload;
// the length covers the type byte plus the payload, so the smallest legal
// frame is a bare type (length 1). The length field is bounded by
// MaxFrame before any allocation happens, so a malformed or adversarial
// prefix can never make ReadFrame allocate more than MaxFrame bytes, and
// the payload decoder checks every count against the bytes that remain
// before it allocates for it (codec.go) — FuzzFrameDecode holds the
// package to both.
//
//	+--------+--------+--------+--------+------+----------------+
//	|        length (big endian)        | type |    payload     |
//	+--------+--------+--------+--------+------+----------------+
//
// Each frame type has one payload encoding, fixed at compile time:
// binary for every frame of a steady-state operation, JSON for the four
// sent once per connection or world (codec.go says which and why).
//
// One request frame gets exactly one response frame, with a single
// exception: Cancel is fire-and-forget (no response of its own — the
// in-flight request it aborts still gets its response, normally an
// Error with CodeCancelled). Handles (statements, cursors,
// transactions, worlds) are small integers scoped to the connection
// that created them; the server bounds every handle table and rejects
// allocation past the bound with CodeLimit.
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// MaxFrame bounds the length field: type byte plus payload. Frames
// claiming more are rejected before allocation.
const MaxFrame = 1 << 20

// ErrFrameTooLarge is the encode error of a message longer than
// MaxFrame. Nothing of such a frame is written, so the connection stays
// in step: a server answers the request with a CodeLimit error instead.
var ErrFrameTooLarge = errors.New("wire: frame too large")

// headerSize is the length prefix's width.
const headerSize = 4

// keepBuffer is the largest buffer a Reader or Writer keeps between
// frames; one that grew past it for a wide result is dropped afterwards,
// so a single near-MaxFrame frame does not pin a megabyte per connection.
const keepBuffer = 16 << 10

// appendFrame appends one whole frame — header, type, payload — to b.
// The msg must be one of the package's message structs (its type tag is
// typ).
func appendFrame(b []byte, typ byte, msg any) ([]byte, error) {
	m, ok := msg.(message)
	if !ok {
		return b, fmt.Errorf("wire: %T is not a frame payload", msg)
	}
	start := len(b)
	b = append(b, 0, 0, 0, 0, typ)
	b, err := m.encode(b)
	if err != nil {
		return b, fmt.Errorf("wire: encode type %d: %w", typ, err)
	}
	n := len(b) - start - headerSize
	if n > MaxFrame {
		return b, fmt.Errorf("%w (%d > %d)", ErrFrameTooLarge, n, MaxFrame)
	}
	binary.BigEndian.PutUint32(b[start:], uint32(n))
	return b, nil
}

// WriteFrame encodes msg and writes one frame with a single Write. It
// allocates the frame (once, as a rule: the buffer is sized for a
// rowless message, plus a guess per cell for one that carries rows); a
// connection uses a Writer.
func WriteFrame(w io.Writer, typ byte, msg any) error {
	size := 128
	switch m := msg.(type) {
	case *Result:
		size += 4 * cells(m.Rows)
	case *Fetched:
		size += 4 * cells(m.Rows)
	}
	buf, err := appendFrame(make([]byte, 0, size), typ, msg)
	if err != nil {
		return err
	}
	_, err = w.Write(buf)
	return err
}

// cells counts the values of a row block.
func cells(rows [][]int64) int {
	if len(rows) == 0 {
		return 0
	}
	return len(rows) * len(rows[0])
}

// Writer writes frames to one connection through one reusable buffer:
// each frame is encoded in place and sent with a single Write. Not safe
// for concurrent use.
type Writer struct {
	w   io.Writer
	buf []byte
}

// NewWriter returns a Writer on w.
func NewWriter(w io.Writer) *Writer { return &Writer{w: w} }

// WriteFrame encodes msg and writes one frame. Nothing is written when
// encoding fails.
func (fw *Writer) WriteFrame(typ byte, msg any) error {
	buf, err := appendFrame(fw.buf[:0], typ, msg)
	if cap(buf) <= keepBuffer {
		fw.buf = buf
	} else {
		fw.buf = nil
	}
	if err != nil {
		return err
	}
	_, err = fw.w.Write(buf)
	return err
}

// frameLen validates a header's length field.
func frameLen(hdr []byte) (int, error) {
	n := binary.BigEndian.Uint32(hdr)
	if n < 1 || n > MaxFrame {
		return 0, fmt.Errorf("wire: bad frame length %d", n)
	}
	return int(n), nil
}

// readBody reads the n bytes a validated header announced into body.
func readBody(r io.Reader, body []byte) (typ byte, payload []byte, err error) {
	if _, err := io.ReadFull(r, body); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, err
	}
	return body[0], body[1:], nil
}

// ReadFrame reads one frame, returning the type byte and payload. The
// length field is validated against MaxFrame before the payload buffer
// is allocated; truncated input surfaces as io.ErrUnexpectedEOF, a
// clean EOF before any header byte as io.EOF. It allocates the payload;
// a connection uses a Reader.
func ReadFrame(r io.Reader) (typ byte, payload []byte, err error) {
	// One allocation holds the header and, for a small frame, the body
	// behind it.
	buf := make([]byte, headerSize, 64)
	if _, err := io.ReadFull(r, buf); err != nil {
		return 0, nil, err
	}
	n, err := frameLen(buf)
	if err != nil {
		return 0, nil, err
	}
	if headerSize+n > cap(buf) {
		return readBody(r, make([]byte, n))
	}
	return readBody(r, buf[headerSize:headerSize+n])
}

// Reader reads frames from one connection into one reusable buffer. Not
// safe for concurrent use.
type Reader struct {
	br  *bufio.Reader
	buf []byte
}

// NewReader returns a Reader on r.
func NewReader(r io.Reader) *Reader { return &Reader{br: bufio.NewReader(r)} }

// ReadFrame is the package's ReadFrame, except that the payload is only
// valid until the next call (Decode keeps no reference to it).
func (fr *Reader) ReadFrame() (typ byte, payload []byte, err error) {
	_, n, err := fr.Peek()
	if err != nil {
		return 0, nil, err
	}
	fr.br.Discard(headerSize) // cannot fail: Peek buffered them
	if n > cap(fr.buf) || cap(fr.buf) > keepBuffer {
		fr.buf = make([]byte, max(n, 1024))
	}
	return readBody(fr.br, fr.buf[:n])
}

// Peek waits for the next frame's header and type byte and returns the
// type and the frame's length (type byte plus payload) without consuming
// anything: an error — a read deadline included — leaves every byte that
// did arrive for the next call. The server watches for a Cancel with it
// while a request is parked.
func (fr *Reader) Peek() (typ byte, n int, err error) {
	hdr, err := fr.br.Peek(headerSize + 1)
	if err != nil {
		if err == io.EOF && len(hdr) > 0 {
			err = io.ErrUnexpectedEOF
		}
		return 0, 0, err
	}
	if n, err = frameLen(hdr); err != nil {
		return 0, 0, err
	}
	return hdr[headerSize], n, nil
}
