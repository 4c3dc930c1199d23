package cluster

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

// TestRawFramesShareTheGobFraming: a raw payload and a gob envelope
// travel the same framing path, so one reader takes them interleaved, and
// a raw payload comes back byte for byte.
func TestRawFramesShareTheGobFraming(t *testing.T) {
	var buf bytes.Buffer
	fw := NewFrameWriter(&buf)
	raw := []byte{3, 1, 4, 1, 5, 9, 2, 6}
	if err := fw.WriteFrame(raw); err != nil {
		t.Fatal(err)
	}
	if err := fw.write(&envelope{Ping: &pingMsg{Seq: 7}}); err != nil {
		t.Fatal(err)
	}
	if err := fw.WriteFrame(raw[:1]); err != nil {
		t.Fatal(err)
	}
	if err := fw.WriteFrame(nil); err == nil {
		t.Fatal("an empty payload was framed; the reader would refuse it")
	}
	fr := NewFrameReader(&buf)
	if p, err := fr.ReadFrame(); err != nil || !bytes.Equal(p, raw) {
		t.Fatalf("raw frame: % x, %v", p, err)
	}
	if env, err := fr.read(); err != nil || env.Ping == nil || env.Ping.Seq != 7 {
		t.Fatalf("gob frame after a raw one: %+v, %v", env, err)
	}
	if p, err := fr.ReadFrame(); err != nil || !bytes.Equal(p, raw[:1]) {
		t.Fatalf("second raw frame: % x, %v", p, err)
	}
	if _, err := fr.ReadFrame(); !errors.Is(err, io.EOF) {
		t.Fatalf("clean end of stream: got %v, want io.EOF", err)
	}
}

// TestRawFramesDoNotAllocate pins the raw frame path warm: the writer
// reuses its frame buffer and the reader its header and payload buffers.
func TestRawFramesDoNotAllocate(t *testing.T) {
	var buf bytes.Buffer
	fw := NewFrameWriter(&buf)
	fr := NewFrameReader(&buf)
	payload := make([]byte, 64)
	roundTrip := func() {
		if err := fw.WriteFrame(payload); err != nil {
			t.Fatal(err)
		}
		if _, err := fr.ReadFrame(); err != nil {
			t.Fatal(err)
		}
	}
	roundTrip()
	if a := testing.AllocsPerRun(200, roundTrip); a != 0 {
		t.Fatalf("warm raw frame round trip allocates %.1f times", a)
	}
}
