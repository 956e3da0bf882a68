package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"

	"locksafe/internal/model"
)

// sampleRequests covers every op the codec encodes.
func sampleRequests() []Request {
	table, csteps := model.CompactTxn([]model.Step{
		model.LX("accounts/7"), model.W("accounts/7"), model.LS("rates"),
		model.R("rates"), model.US("rates"), model.UX("accounts/7"),
	})
	return []Request{
		{ID: 1, Op: OpHello, Version: Version},
		{ID: 2, Op: OpOpen, Name: "transfer", Table: table, CSteps: csteps},
		{ID: 3, Op: OpRun, Name: "", Table: table, CSteps: csteps},
		{ID: 4, Op: OpOpen, Name: "empty"}, // empty declared body
		{ID: 5, Op: OpStep, SID: 9, Attempt: 2, CStep: model.CompactStep{Op: model.Write, Idx: 1}},
		{ID: 6, Op: OpCommit, SID: 9, Attempt: 2},
		{ID: 7, Op: OpAbort, SID: 9},
		{ID: 8, Op: OpStats},
		{ID: 9, Op: OpInspect},
		{ID: 10, Op: OpResume, Name: "transfer", Table: table, CSteps: csteps,
			SID: 9, Token: 0xDEADBEEFCAFE},
		{ID: 11, Op: OpResume, Name: "empty", SID: 3, Token: 1},
	}
}

// sampleResponses covers every code, flag block and field combination.
func sampleResponses() []Response {
	stats := &Stats{Commits: 12, GaveUp: 1, DeadlockAborts: 2, PolicyAborts: 3,
		ImproperAborts: 4, CascadeAborts: 5, LeaseExpired: 6, Events: 700,
		Replayed: 8, OpenSessions: 9, WaitNS: 123456789, ElapsedNS: 987654321}
	resps := []Response{
		{ID: 1, OK: true, Version: Version, Policy: "2PL"},
		{ID: 2, OK: true, SID: 41},
		{ID: 3, OK: true},
		{ID: 4, OK: true, Stats: stats},
		{ID: 5, OK: true, Inspect: &Inspect{Log: "(LX a)(W a)", State: "a=1",
			MonitorKey: "2pl", Serializable: true, Stats: *stats}},
		{ID: 6, OK: true, SID: 41, Token: 0xFEEDFACE0, Attempt: 0},
		{ID: 7, OK: true, SID: 41, Attempt: 3},
	}
	for _, code := range []string{CodeAborted, CodeAbandoned, CodeExpired,
		CodeClosed, CodeDone, CodeMismatch, CodeMalformed, CodeBadReq,
		CodeVersion, CodeInternal} {
		resps = append(resps, Response{ID: 10, Code: code, Err: "refused: " + code, SID: 41})
	}
	return resps
}

// binaryRoundTripReqs pushes requests through a binary Writer/Reader
// pair and returns the decoded copy.
func binaryRoundTripReqs(t *testing.T, reqs []Request) []Request {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteRequests(reqs); err != nil {
		t.Fatalf("encode: %v", err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := NewReader(&buf)
	var got []Request
	for len(got) < len(reqs) {
		batch, err := r.ReadRequests()
		if err != nil {
			t.Fatalf("decode after %d of %d: %v", len(got), len(reqs), err)
		}
		got = append(got, batch...)
	}
	return got
}

func binaryRoundTripResps(t *testing.T, resps []Response) []Response {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteResponses(resps); err != nil {
		t.Fatalf("encode: %v", err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := NewReader(&buf)
	var got []Response
	for len(got) < len(resps) {
		batch, err := r.ReadResponses()
		if err != nil {
			t.Fatalf("decode after %d of %d: %v", len(got), len(resps), err)
		}
		got = append(got, batch...)
	}
	return got
}

func TestBinaryRequestRoundTrip(t *testing.T) {
	reqs := sampleRequests()
	got := binaryRoundTripReqs(t, reqs)
	for i := range reqs {
		if !reflect.DeepEqual(got[i], reqs[i]) {
			t.Errorf("request %d: got %+v, want %+v", i, got[i], reqs[i])
		}
	}
}

func TestBinaryResponseRoundTrip(t *testing.T) {
	resps := sampleResponses()
	got := binaryRoundTripResps(t, resps)
	for i := range resps {
		if !reflect.DeepEqual(got[i], resps[i]) {
			t.Errorf("response %d: got %+v, want %+v", i, got[i], resps[i])
		}
	}
}

// frame wraps a payload in the 4-byte big-endian length header.
func frame(payload []byte) []byte {
	out := binary.BigEndian.AppendUint32(nil, uint32(len(payload)))
	return append(out, payload...)
}

// validStepPayload builds one well-formed single-step binary payload.
func validStepPayload(t *testing.T) []byte {
	t.Helper()
	payload := []byte{binMagic, 1}
	payload, err := appendRequest(payload, &Request{ID: 7, Op: OpStep, SID: 3,
		CStep: model.CompactStep{Op: model.Read, Idx: 0}})
	if err != nil {
		t.Fatal(err)
	}
	return payload
}

// TestBinaryMangledFramesFailCleanly: corrupted frames must produce
// decode errors, never panics or silent misparses into valid requests.
func TestBinaryMangledFramesFailCleanly(t *testing.T) {
	good := validStepPayload(t)
	readFrom := func(stream []byte) ([]Request, error) {
		return NewReader(bytes.NewReader(stream)).ReadRequests()
	}
	if _, err := readFrom(frame(good)); err != nil {
		t.Fatalf("control: %v", err)
	}

	t.Run("bad magic", func(t *testing.T) {
		bad := bytes.Clone(good)
		bad[0] ^= 0xFF
		if _, err := readFrom(frame(bad)); err == nil || !strings.Contains(err.Error(), "magic") {
			t.Fatalf("err = %v, want magic complaint", err)
		}
	})
	t.Run("zero count", func(t *testing.T) {
		if _, err := readFrom(frame([]byte{binMagic, 0})); err == nil {
			t.Fatal("empty batch decoded")
		}
	})
	t.Run("count exceeds payload", func(t *testing.T) {
		if _, err := readFrom(frame([]byte{binMagic, 200, byte(0)})); err == nil {
			t.Fatal("overlong batch count decoded")
		}
	})
	t.Run("unknown op byte", func(t *testing.T) {
		bad := bytes.Clone(good)
		bad[2] = 0xEE // op byte of the first message
		if _, err := readFrom(frame(bad)); err == nil {
			t.Fatal("unknown op decoded")
		}
	})
	t.Run("trailing bytes", func(t *testing.T) {
		if _, err := readFrom(frame(append(bytes.Clone(good), 0x00))); err == nil {
			t.Fatal("trailing garbage accepted")
		}
	})
	t.Run("truncated payload", func(t *testing.T) {
		full := frame(good)
		if _, err := readFrom(full[:len(full)-2]); !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("err = %v, want ErrUnexpectedEOF", err)
		}
	})
	t.Run("death on header boundary", func(t *testing.T) {
		// The header arrived but zero payload bytes: a mid-frame death,
		// normalized to ErrUnexpectedEOF (never a clean EOF).
		if _, err := readFrom(frame(good)[:4]); !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("err = %v, want ErrUnexpectedEOF", err)
		}
	})
}

// TestBinaryUnencodable pins the encoder's refusal to ship malformed
// messages: unknown ops, and responses whose field combinations have
// no encoding.
func TestBinaryUnencodable(t *testing.T) {
	cases := []struct {
		name string
		err  func() error
	}{
		{"unknown op", func() error {
			_, err := appendRequest(nil, &Request{Op: "bogus"})
			return err
		}},
		{"OK with refusal fields", func() error {
			_, err := appendResponse(nil, &Response{OK: true, Err: "boom"})
			return err
		}},
		{"refusal with unknown code", func() error {
			_, err := appendResponse(nil, &Response{Code: "no-such-code"})
			return err
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.err(); err == nil {
				t.Fatal("encoded, want error")
			}
		})
	}
}

// TestBinaryFramePacking: a large batch must split across frames, each
// under MaxFrame, and reassemble to the original sequence.
func TestBinaryFramePacking(t *testing.T) {
	big := strings.Repeat("x", MaxFrame/3)
	reqs := make([]Request, 4)
	for i := range reqs {
		reqs[i] = Request{ID: uint64(i), Op: OpOpen, Name: big,
			Table:  []model.Entity{model.Entity(big)},
			CSteps: []model.CompactStep{{Op: model.LockExclusive, Idx: 0}}}
	}
	got := binaryRoundTripReqs(t, reqs)
	if !reflect.DeepEqual(got, reqs) {
		t.Fatal("multi-frame batch did not reassemble")
	}
}
