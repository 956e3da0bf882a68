package wire

import (
	"bytes"
	"encoding/binary"
	"io"
	"strings"
	"testing"

	"locksafe/internal/model"
)

// TestFrameOversizeRejected pins MaxFrame in both directions: a header
// announcing more than MaxFrame payload bytes is refused before any
// payload is read, and a single message that alone exceeds MaxFrame is
// unsendable.
func TestFrameOversizeRejected(t *testing.T) {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], MaxFrame+1)
	if _, err := NewReader(bytes.NewReader(hdr[:])).ReadRequests(); err == nil || !strings.Contains(err.Error(), "MaxFrame") {
		t.Fatalf("oversize request frame accepted: %v", err)
	}
	if _, err := NewReader(bytes.NewReader(hdr[:])).ReadResponses(); err == nil || !strings.Contains(err.Error(), "MaxFrame") {
		t.Fatalf("oversize response frame accepted: %v", err)
	}
	big := strings.Repeat("x", MaxFrame)
	w := NewWriter(&bytes.Buffer{})
	if err := w.WriteRequests([]Request{{Op: OpOpen, Name: big}}); err == nil || !strings.Contains(err.Error(), "MaxFrame") {
		t.Fatalf("oversize request write accepted: %v", err)
	}
	if err := w.WriteResponses([]Response{{Code: CodeBadReq, Err: big}}); err == nil || !strings.Contains(err.Error(), "MaxFrame") {
		t.Fatalf("oversize response write accepted: %v", err)
	}
}

// TestBatchMidFrameDrop sweeps every possible cut point of a real batch
// frame — the byte-exact truncations the chaos proxy's kill plan
// produces when a connection dies mid-send: a header-only write, a cut
// inside the header, and a cut inside any message. Whatever the offset,
// the reader must fail cleanly (no partial batch, no hang, no panic);
// a cut before the first byte is a clean between-frames close
// (io.EOF), and any cut after it is io.ErrUnexpectedEOF, so the server
// can tell a mid-frame death from a clean close.
func TestBatchMidFrameDrop(t *testing.T) {
	table, csteps := model.CompactTxn([]model.Step{model.LX("a"), model.W("a"), model.UX("a")})
	reqs := []Request{
		{ID: 1, Op: OpOpen, Name: "T1", Table: table, CSteps: csteps},
		{ID: 2, Op: OpStep, SID: 7, CStep: csteps[0], Attempt: 1},
		{ID: 3, Op: OpCommit, SID: 7, Attempt: 1},
	}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteRequests(reqs); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	frame := bytes.Clone(buf.Bytes())
	if got, err := NewReader(bytes.NewReader(frame)).ReadRequests(); err != nil || len(got) != 3 {
		t.Fatalf("full frame: got %d requests, err %v", len(got), err)
	}
	for cut := 0; cut < len(frame); cut++ {
		got, err := NewReader(bytes.NewReader(frame[:cut])).ReadRequests()
		if err == nil {
			t.Fatalf("cut at byte %d of %d: reader returned %d requests from a truncated frame", cut, len(frame), len(got))
		}
		want := io.ErrUnexpectedEOF
		if cut == 0 {
			want = io.EOF
		}
		if err != want {
			t.Fatalf("cut at byte %d of %d = %v, want %v", cut, len(frame), err, want)
		}
	}

	// The response direction dies the same way.
	buf.Reset()
	if err := w.WriteResponses([]Response{{ID: 1, OK: true}, {ID: 2, Code: CodeAborted, Err: "stale"}}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	frame = bytes.Clone(buf.Bytes())
	for cut := 0; cut < len(frame); cut++ {
		_, err := NewReader(bytes.NewReader(frame[:cut])).ReadResponses()
		want := io.ErrUnexpectedEOF
		if cut == 0 {
			want = io.EOF
		}
		if err != want {
			t.Fatalf("response cut at byte %d of %d = %v, want %v", cut, len(frame), err, want)
		}
	}

	// A header-only write whose length field promises a payload that
	// never arrives — the kill plan landing exactly on the header/payload
	// boundary.
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], 64)
	if _, err := NewReader(bytes.NewReader(hdr[:])).ReadRequests(); err != io.ErrUnexpectedEOF {
		t.Fatalf("header-only frame = %v, want io.ErrUnexpectedEOF", err)
	}
}
