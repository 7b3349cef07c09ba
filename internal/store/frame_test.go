package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"
)

// TestFrameRoundTrip encodes frames with random tags, IDs and data sizes
// back to back and decodes them again: every field comes back, and each
// frame's size is its data plus FrameOverhead. The sizes include empty data
// and one frame at the MaxFrameData limit.
func TestFrameRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	sizes := []int{0, 1, FrameOverhead}
	for i := 0; i < 200; i++ {
		sizes = append(sizes, rng.Intn(4096))
	}
	var buf []byte
	var want []Frame
	for _, n := range sizes {
		f := Frame{Tag: byte(rng.Intn(256)), ID: rng.Uint64(), Data: make([]byte, n)}
		rng.Read(f.Data)
		want = append(want, f)
		buf = AppendFrame(buf, f.Tag, f.ID, f.Data)
	}
	for i, w := range want {
		got, n, ok := DecodeFrame(buf)
		if !ok || got.Tag != w.Tag || got.ID != w.ID || !bytes.Equal(got.Data, w.Data) {
			t.Fatalf("frame %d: decoded %v (ok=%v), want tag %d id %x with %d data bytes",
				i, got.Tag, ok, w.Tag, w.ID, len(w.Data))
		}
		if n != FrameOverhead+len(w.Data) || FrameSize(buf) != n {
			t.Fatalf("frame %d: size %d (FrameSize %d), want %d", i, n, FrameSize(buf), FrameOverhead+len(w.Data))
		}
		if _, _, ok := DecodeFrame(buf[:n-1]); ok {
			t.Fatalf("frame %d decoded with its last byte missing", i)
		}
		buf = buf[n:]
	}
	if len(buf) != 0 {
		t.Fatalf("%d bytes left after decoding every frame", len(buf))
	}

	big := make([]byte, MaxFrameData)
	big[0], big[len(big)-1] = 0xA5, 0x5A
	frame := AppendFrame(nil, 3, 1<<63, big)
	if got, n, ok := DecodeFrame(frame); !ok || n != len(frame) || got.Tag != 3 || got.ID != 1<<63 || !bytes.Equal(got.Data, big) {
		t.Fatalf("frame at the MaxFrameData limit did not round-trip (ok=%v, n=%d)", ok, n)
	}
	frame[len(frame)/2] ^= 0x01
	if _, _, ok := DecodeFrame(frame); ok {
		t.Fatal("bit-flipped frame decoded")
	}
	over := binary.LittleEndian.AppendUint32(nil, minPayload+MaxFrameData+1)
	if FrameSize(over) != 0 {
		t.Fatal("a length one past the data limit was accepted")
	}
}

var errInjected = errors.New("injected fault")

// faultyFile tears every Write (half the bytes land) and fails every
// Truncate while broken is set.
type faultyFile struct {
	File
	broken bool
}

func (f *faultyFile) Write(p []byte) (int, error) {
	if f.broken {
		n, _ := f.File.Write(p[:len(p)/2])
		return n, errInjected
	}
	return f.File.Write(p)
}

func (f *faultyFile) Truncate(size int64) error {
	if f.broken {
		return errInjected
	}
	return f.File.Truncate(size)
}

// TestAppenderRefusesAfterFailedRollback: once a failed append cannot be
// rolled back, the appender refuses every later append, so the file never
// grows past the torn frame. (A rollback that succeeds is covered by the
// disk-fault tests in internal/chaos.)
func TestAppenderRefusesAfterFailedRollback(t *testing.T) {
	fs := NewMemFS()
	inner, _ := fs.OpenFile("f")
	f := &faultyFile{File: inner}
	a := NewAppender(f, 0, true)
	if err := a.Append([]byte("first")); err != nil {
		t.Fatal(err)
	}
	f.broken = true
	if err := a.Append([]byte("torn-for-good")); !errors.Is(err, errInjected) {
		t.Fatalf("torn append with a failed rollback: err %v", err)
	}
	torn, _ := fs.ReadFile("f")
	f.broken = false
	if err := a.Append([]byte("after")); err == nil {
		t.Fatal("append after a failed rollback succeeded")
	}
	if got, _ := fs.ReadFile("f"); !bytes.Equal(got, torn) {
		t.Fatalf("file grew after a failed rollback: %q -> %q", torn, got)
	}
}
