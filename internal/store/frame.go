package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"slices"
)

// The framed-file codec. Every durable file in the repository — this
// store, the supervisor journal, and the checkpoint envelope inside them —
// is written and checked by the code below. Little-endian throughout:
//
//	header  magic [8]byte, version uint32
//	frame   length uint32   bytes of payload (tag + id + data)
//	        payload tag(1) id(8) data(length-9)
//	        crc32 uint32    IEEE, over the length field and payload
//
// A frame's data is at most MaxFrameData bytes, on the write path and the
// read path alike: a reader treats a longer length field as damage, so a
// corrupt length never sizes an allocation. The checkpoint envelope is a
// header and a body closed by the same CRC trailer, with no length field.
// What a tag and an ID mean, and what a reader does past a bad frame, is
// up to each file's owner.

// HeaderLen is the size of a file header: the magic and the version.
const HeaderLen = 8 + 4

const (
	// minPayload is tag + id: the smallest legal frame payload.
	minPayload = 1 + 8
	// FrameOverhead is the fixed on-disk cost of one frame.
	FrameOverhead = 4 + minPayload + 4
	// MaxFrameData bounds one frame's data (checkpoint payloads are a few
	// MiB in practice).
	MaxFrameData = 64 << 20
)

// AppendHeader encodes a file header into buf.
func AppendHeader(buf []byte, magic [8]byte, version uint32) []byte {
	buf = append(buf, magic[:]...)
	return binary.LittleEndian.AppendUint32(buf, version)
}

// CheckHeader checks that data opens with magic and returns the version
// after it; which versions to accept is the caller's decision. what names
// the format in the bad-magic error.
func CheckHeader(data []byte, magic [8]byte, what string) (uint32, error) {
	if len(data) < HeaderLen {
		return 0, fmt.Errorf("file too short for header (%d bytes)", len(data))
	}
	if string(data[:8]) != string(magic[:]) {
		return 0, fmt.Errorf("not a %s (bad magic %q)", what, data[:8])
	}
	return binary.LittleEndian.Uint32(data[8:HeaderLen]), nil
}

// AppendCRC closes buf[start:] with its CRC32 trailer.
func AppendCRC(buf []byte, start int) []byte {
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf[start:]))
}

// CheckCRC verifies data's CRC32 trailer and returns the bytes it covers.
func CheckCRC(data []byte) ([]byte, error) {
	if len(data) < 4 {
		return nil, fmt.Errorf("too short for a crc (%d bytes)", len(data))
	}
	body := data[:len(data)-4]
	stored := binary.LittleEndian.Uint32(data[len(body):])
	if got := crc32.ChecksumIEEE(body); got != stored {
		return nil, fmt.Errorf("crc mismatch (stored %08x, computed %08x)", stored, got)
	}
	return body, nil
}

// Frame is one decoded frame.
type Frame struct {
	Tag  byte
	ID   uint64
	Data []byte
}

// AppendFrame encodes one frame into buf. The caller keeps data within
// MaxFrameData.
func AppendFrame(buf []byte, tag byte, id uint64, data []byte) []byte {
	buf = slices.Grow(buf, FrameOverhead+len(data))
	start := len(buf)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(minPayload+len(data)))
	buf = append(buf, tag)
	buf = binary.LittleEndian.AppendUint64(buf, id)
	buf = append(buf, data...)
	return AppendCRC(buf, start)
}

// FrameSize reads the length field that opens b (at least 4 bytes) and
// returns the whole frame's size, or 0 when the length is out of range.
func FrameSize(b []byte) int {
	length := binary.LittleEndian.Uint32(b)
	if length < minPayload || length > minPayload+MaxFrameData {
		return 0
	}
	return 4 + int(length) + 4
}

// DecodeFrame decodes the frame that opens b and returns it (Data aliases
// b) with its size. ok is false for an out-of-range length, a frame that
// runs past b, or a CRC mismatch.
func DecodeFrame(b []byte) (f Frame, n int, ok bool) {
	if len(b) < FrameOverhead {
		return Frame{}, 0, false
	}
	n = FrameSize(b)
	if n == 0 || len(b) < n {
		return Frame{}, 0, false
	}
	body, err := CheckCRC(b[:n])
	if err != nil {
		return Frame{}, 0, false
	}
	return Frame{Tag: body[4], ID: binary.LittleEndian.Uint64(body[5:13]), Data: body[13:]}, n, true
}

// Appender is the one write path of a framed file. Append writes, then
// fsyncs unless sync is off. On any error it truncates the file back to
// its size before the call, so a failed append leaves the file
// byte-identical to what it was. If that rollback fails too, the appender
// refuses every later append: nothing is ever written after a torn frame.
// It has no lock; its owner serializes the calls.
type Appender struct {
	f      File
	size   int64
	nosync bool
	err    error // the failed rollback that closed the appender
}

// NewAppender appends to f, which holds size bytes.
func NewAppender(f File, size int64, sync bool) *Appender {
	return &Appender{f: f, size: size, nosync: !sync}
}

// Append writes b at the end of the file (see Appender).
func (a *Appender) Append(b []byte) error {
	if a.err != nil {
		return a.err
	}
	_, err := a.f.Write(b)
	if err == nil && !a.nosync {
		err = a.f.Sync()
	}
	if err == nil {
		a.size += int64(len(b))
		return nil
	}
	if terr := a.Truncate(a.size); terr != nil {
		a.err = fmt.Errorf("%w (rollback failed, refusing later appends: %w)", err, terr)
		return a.err
	}
	return err
}

// Truncate cuts the file to size and fsyncs the cut, even with sync off:
// a failed append's rollback, or a scan healing a torn tail.
func (a *Appender) Truncate(size int64) error {
	if err := a.f.Truncate(size); err != nil {
		return err
	}
	a.size = size
	return a.f.Sync()
}

// Size is the file's length: every byte an Append acknowledged.
func (a *Appender) Size() int64 { return a.size }

// Close closes the file.
func (a *Appender) Close() error { return a.f.Close() }
