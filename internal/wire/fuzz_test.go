package wire

// FuzzCodecRoundTrip feeds arbitrary bytes to the decoder as a frame
// payload. The properties under test:
//
//  1. Clean failure: malformed payloads produce errors, never panics,
//     hangs, or out-of-bounds reads (the cursor bounds-checks every
//     primitive).
//  2. Idempotence: any payload that decodes must re-encode and decode
//     again to the identical value — the decoder accepts nothing the
//     encoder cannot faithfully ship.
//
// The seed corpus is built from the encoder, so every op, code and
// flag combination round-trips from the first run; the fuzzer then
// mutates those valid frames into near-valid ones — exactly the
// byte-mangled frames a sick peer would produce.

import (
	"bytes"
	"reflect"
	"testing"
)

func fuzzReadReqs(stream []byte) ([]Request, error) {
	reqs, err := NewReader(bytes.NewReader(stream)).ReadRequests()
	if err != nil {
		return nil, err
	}
	out := make([]Request, len(reqs))
	copy(out, reqs) // the reader's slice is scratch
	return out, nil
}

func fuzzReadResps(stream []byte) ([]Response, error) {
	resps, err := NewReader(bytes.NewReader(stream)).ReadResponses()
	if err != nil {
		return nil, err
	}
	out := make([]Response, len(resps))
	copy(out, resps)
	return out, nil
}

func fuzzEncodeReqs(t *testing.T, reqs []Request) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteRequests(reqs); err != nil {
		t.Fatalf("re-encode of decoded requests failed: %v", err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func fuzzEncodeResps(t *testing.T, resps []Response) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteResponses(resps); err != nil {
		t.Fatalf("re-encode of decoded responses failed: %v", err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func FuzzCodecRoundTrip(f *testing.F) {
	for _, req := range sampleRequests() {
		payload := []byte{binMagic, 1}
		payload, err := appendRequest(payload, &req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(payload)
	}
	for _, resp := range sampleResponses() {
		payload := []byte{binMagic, 1}
		payload, err := appendResponse(payload, &resp)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(payload)
	}
	// One multi-message batch seed so the fuzzer explores count > 1.
	batch := []byte{binMagic, 3}
	for _, req := range sampleRequests()[:3] {
		var err error
		batch, err = appendRequest(batch, &req)
		if err != nil {
			f.Fatal(err)
		}
	}
	f.Add(batch)

	f.Fuzz(func(t *testing.T, payload []byte) {
		if len(payload) > MaxFrame {
			return
		}
		stream := frame(payload)

		if reqs, err := fuzzReadReqs(stream); err == nil {
			again, err := fuzzReadReqs(fuzzEncodeReqs(t, reqs))
			if err != nil {
				t.Fatalf("re-decode: %v", err)
			}
			if !reflect.DeepEqual(again, reqs) {
				t.Fatalf("round trip changed requests:\n got %+v\nwant %+v", again, reqs)
			}
		}

		if resps, err := fuzzReadResps(stream); err == nil {
			again, err := fuzzReadResps(fuzzEncodeResps(t, resps))
			if err != nil {
				t.Fatalf("re-decode: %v", err)
			}
			if !reflect.DeepEqual(again, resps) {
				t.Fatalf("round trip changed responses:\n got %+v\nwant %+v", again, resps)
			}
		}
	})
}
