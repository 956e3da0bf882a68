package wire

import (
	"bytes"
	"fmt"
	"strings"

	"locksafe/internal/model"
)

// ExampleWriter encodes the worked example of docs/PROTOCOL.md: a hello,
// the open of T1 = (LX a)(W a)(UX a) answered with its sid and resume
// token, and the three steps plus the commit pipelined as one frame and
// answered as one frame. Each frame prints as its header (length, magic
// byte, message count) followed by one line per message; the output is
// the transcript PROTOCOL.md quotes byte for byte.
func ExampleWriter() {
	table, body := model.CompactTxn([]model.Step{model.LX("a"), model.W("a"), model.UX("a")})
	const token = 13024771541842485119

	requests := func(notes []string, reqs ...Request) {
		var buf bytes.Buffer
		w := NewWriter(&buf)
		if err := w.WriteRequests(reqs); err != nil {
			panic(err)
		}
		w.Flush()
		dump("C→S", buf.Bytes(), notes, func(d *cursor) error { _, err := d.request(); return err })
	}
	responses := func(notes []string, resps ...Response) {
		var buf bytes.Buffer
		w := NewWriter(&buf)
		if err := w.WriteResponses(resps); err != nil {
			panic(err)
		}
		w.Flush()
		dump("S→C", buf.Bytes(), notes, func(d *cursor) error { _, err := d.response(); return err })
	}

	requests([]string{"hello id=1 version=4"},
		Request{ID: 1, Op: OpHello, Version: Version})
	responses([]string{"OK, flags=hello, id=1, sid=0, version=4, policy \"2PL\""},
		Response{ID: 1, OK: true, Version: Version, Policy: "2PL"})
	requests([]string{"open id=2 name \"T1\", table [\"a\"], body (LX,0) (W,0) (UX,0)"},
		Request{ID: 2, Op: OpOpen, Name: "T1", Table: table, CSteps: body})
	responses([]string{"OK, flags=token, id=2, sid=0, token, attempt=0"},
		Response{ID: 2, OK: true, SID: 0, Token: token})
	requests([]string{
		"step id=3 sid=0 attempt=0 (LX,0)",
		"step id=4 sid=0 attempt=0 (W,0)",
		"step id=5 sid=0 attempt=0 (UX,0)",
		"commit id=6 sid=0 attempt=0",
	},
		Request{ID: 3, Op: OpStep, CStep: body[0]},
		Request{ID: 4, Op: OpStep, CStep: body[1]},
		Request{ID: 5, Op: OpStep, CStep: body[2]},
		Request{ID: 6, Op: OpCommit})
	responses([]string{"OK id=3 sid=0", "OK id=4 sid=0", "OK id=5 sid=0", "OK id=6 sid=0"},
		Response{ID: 3, OK: true}, Response{ID: 4, OK: true},
		Response{ID: 5, OK: true}, Response{ID: 6, OK: true})

	// Output:
	// C→S  00 00 00 05 b3 01                 5-byte payload, magic, 1 message
	//      01 01 08                          hello id=1 version=4
	// S→C  00 00 00 0b b3 01                 11-byte payload, magic, 1 message
	//      00 01 01 00 08 03 32 50 4c        OK, flags=hello, id=1, sid=0, version=4, policy "2PL"
	// C→S  00 00 00 11 b3 01                 17-byte payload, magic, 1 message
	//      02 02 02 54 31 01 01 61 03 05 00 01 00 07 00
	//                                        open id=2 name "T1", table ["a"], body (LX,0) (W,0) (UX,0)
	// S→C  00 00 00 11 b3 01                 17-byte payload, magic, 1 message
	//      00 08 02 00 ff be 8d c1 d8 96 d2 e0 b4 01 00
	//                                        OK, flags=token, id=2, sid=0, token, attempt=0
	// C→S  00 00 00 18 b3 04                 24-byte payload, magic, 4 messages
	//      03 03 00 00 05 00                 step id=3 sid=0 attempt=0 (LX,0)
	//      03 04 00 00 01 00                 step id=4 sid=0 attempt=0 (W,0)
	//      03 05 00 00 07 00                 step id=5 sid=0 attempt=0 (UX,0)
	//      04 06 00 00                       commit id=6 sid=0 attempt=0
	// S→C  00 00 00 12 b3 04                 18-byte payload, magic, 4 messages
	//      00 00 03 00                       OK id=3 sid=0
	//      00 00 04 00                       OK id=4 sid=0
	//      00 00 05 00                       OK id=5 sid=0
	//      00 00 06 00                       OK id=6 sid=0
}

// dump prints one frame: its header, then each message's bytes beside
// its note (on the next line when the bytes are too wide to share one).
// next consumes one message from the cursor.
func dump(dir string, raw []byte, notes []string, next func(*cursor) error) {
	const col = 32
	line := func(lead string, b []byte, note string) {
		digits := fmt.Sprintf("% x", b)
		if len(digits) > col {
			fmt.Printf("%s%s\n%s%s%s\n", lead, digits, strings.Repeat(" ", len(lead)), strings.Repeat(" ", col+2), note)
			return
		}
		fmt.Printf("%s%-*s  %s\n", lead, col, digits, note)
	}
	d := cursor{b: raw[4:]}
	count, err := d.batchHeader()
	if err != nil || count != len(notes) {
		panic(fmt.Sprintf("frame of %d messages for %d notes: %v", count, len(notes), err))
	}
	plural := "s"
	if count == 1 {
		plural = ""
	}
	line(dir+"  ", raw[:len(raw)-d.rem()], fmt.Sprintf("%d-byte payload, magic, %d message%s", len(raw)-4, count, plural))
	for _, note := range notes {
		start := len(raw) - d.rem()
		if err := next(&d); err != nil {
			panic(err)
		}
		line("     ", raw[start:len(raw)-d.rem()], note)
	}
}
