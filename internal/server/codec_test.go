package server

// Hello-refusal table and compact-step regression tests. The server
// speaks protocol version 4 only, binary from the first frame: a binary
// hello naming any other version is refused `version`, a frame in the
// retired JSON encoding fails the magic-byte check and is refused
// `bad-request`, and either refusal closes that connection without
// disturbing others. A client dialing a server that refuses its version
// surfaces ErrVersion. The compact-step path gets its own regression:
// an entity index past the declared table is refused bad-request
// without executing.

import (
	"encoding/binary"
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"locksafe/internal/model"
	"locksafe/internal/policy"
	"locksafe/internal/runtime"
	"locksafe/internal/wire"
	"locksafe/pkg/client"
)

// runOneTxn drives one declared transaction through a session and
// returns the server-side commit count observed by Stats.
func runOneTxn(t *testing.T, c *client.Client) int {
	t.Helper()
	tx := model.Txn{Name: "T", Steps: []model.Step{model.LX("a"), model.W("a"), model.UX("a")}}
	s, err := c.Open(tx)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range tx.Steps {
		if err := s.Step(st); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	return st.Commits
}

// frame prefixes a payload with its 4-byte big-endian length.
func frame(payload []byte) []byte {
	return append(binary.BigEndian.AppendUint32(nil, uint32(len(payload))), payload...)
}

// binaryHello is the frozen hello frame, built by hand rather than by
// the encoder: magic, one message, op 1, uvarint id 1, zigzag version.
func binaryHello(version int) []byte {
	return frame(binary.AppendVarint([]byte{0xB3, 1, 1, 1}, int64(version)))
}

// TestServerCodecNegotiationMatrix sends raw first frames and pins the
// server's answer to each: a hello for version 4 is accepted; a binary
// hello for any other version is refused `version` and the connection
// closes; a JSON hello — what a peer of the
// retired versions 2 and 3 opens with — is refused `bad-request` and the
// connection closes. After every row a fresh connection still opens and
// commits a transaction.
func TestServerCodecNegotiationMatrix(t *testing.T) {
	srv, addr := startServer(t, model.NewState("a"), runtime.Config{Policy: policy.TwoPhase{}, GateStripes: 4})
	defer srv.Shutdown(time.Second)

	rows := []struct {
		name  string
		frame []byte
		code  string // "" = accepted
	}{
		{"binary hello v4", binaryHello(wire.Version), ""},
		{"binary hello v2", binaryHello(2), wire.CodeVersion},
		{"binary hello v3", binaryHello(3), wire.CodeVersion},
		{"binary hello v99", binaryHello(99), wire.CodeVersion},
		{"json hello v2", frame([]byte(`{"id":1,"op":"hello","version":2}`)), wire.CodeBadReq},
		{"json hello v3", frame([]byte(`{"id":1,"op":"hello","version":3}`)), wire.CodeBadReq},
	}
	commits := 0
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			nc, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			defer nc.Close()
			if _, err := nc.Write(row.frame); err != nil {
				t.Fatal(err)
			}
			rd := wire.NewReader(nc)
			defer rd.Release()
			resps, err := rd.ReadResponses()
			if err != nil {
				t.Fatal(err)
			}
			resp := resps[0]
			switch {
			case row.code == "":
				if !resp.OK || resp.Version != wire.Version || resp.Policy != "2PL" {
					t.Fatalf("hello = %+v, want OK version %d policy 2PL", resp, wire.Version)
				}
			case resp.OK || resp.Code != row.code:
				t.Fatalf("hello = %+v, want %s refusal", resp, row.code)
			}
			if row.code != "" {
				// A refusal closes the connection.
				nc.SetReadDeadline(time.Now().Add(10 * time.Second))
				if _, err := rd.ReadResponses(); !errors.Is(err, io.EOF) {
					t.Fatalf("read after refusal = %v, want io.EOF (connection closed)", err)
				}
			}
			// Other connections are unaffected.
			c, err := client.Dial(addr)
			if err != nil {
				t.Fatalf("dial after %s: %v", row.name, err)
			}
			defer c.Close()
			commits++
			if got := runOneTxn(t, c); got != commits {
				t.Fatalf("commits = %d, want %d", got, commits)
			}
		})
	}
}

// TestClientAgainstV2OnlyServer pins the version-mismatch failure mode
// from the client's side: dialing a server that refuses version 4 (a
// listener answering the hello with a binary `version` refusal, as any
// other-version lockd would) returns a clean ErrVersion, not a hang or
// a decode error.
func TestClientAgainstV2OnlyServer(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		defer nc.Close()
		rd, wr := wire.NewReader(nc), wire.NewWriter(nc)
		reqs, err := rd.ReadRequests()
		if err != nil || len(reqs) == 0 || reqs[0].Op != wire.OpHello {
			return
		}
		wr.WriteResponses([]wire.Response{{ID: reqs[0].ID, Code: wire.CodeVersion,
			Err: "server speaks protocol version 2"}})
		wr.Flush()
	}()
	_, err = client.Dial(ln.Addr().String())
	if !errors.Is(err, client.ErrVersion) {
		t.Fatalf("dial of a version-2 server = %v, want ErrVersion", err)
	}
}

// TestServerCompactIndexOutOfRange drives the raw protocol: a step
// whose entity index is past the declared table must be refused
// bad-request without executing, leaving the session's cursor, locks
// and lease untouched.
func TestServerCompactIndexOutOfRange(t *testing.T) {
	srv, addr := startServer(t, model.NewState("a"), runtime.Config{Policy: policy.TwoPhase{}, GateStripes: 4})
	defer srv.Shutdown(time.Second)
	c := dialV4(t, addr)
	defer c.close()

	table, csteps := model.CompactTxn([]model.Step{model.LX("a"), model.W("a"), model.UX("a")})
	open := c.roundTrip(wire.Request{Op: wire.OpOpen, Name: "T", Table: table, CSteps: csteps})
	if !open.OK {
		t.Fatalf("open refused: %+v", open)
	}

	// Index 7 of a 1-entity table: refused bad-request, not executed.
	bad := c.roundTrip(wire.Request{Op: wire.OpStep, SID: open.SID,
		CStep: model.CompactStep{Op: model.LockExclusive, Idx: 7}})
	if bad.OK || bad.Code != wire.CodeBadReq {
		t.Fatalf("out-of-range step = %+v, want CodeBadReq", bad)
	}

	// The session is untouched: the declared body still runs to commit,
	// and the rejected request contributed no events.
	for i, cs := range csteps {
		if resp := c.roundTrip(wire.Request{Op: wire.OpStep, SID: open.SID, CStep: cs}); !resp.OK {
			t.Fatalf("declared step %d refused after bad index: %+v", i, resp)
		}
	}
	if resp := c.roundTrip(wire.Request{Op: wire.OpCommit, SID: open.SID}); !resp.OK {
		t.Fatalf("commit refused: %+v", resp)
	}
	stats := c.roundTrip(wire.Request{Op: wire.OpStats})
	if stats.Stats == nil || stats.Stats.Commits != 1 || stats.Stats.Events != 3 {
		t.Fatalf("stats = %+v, want commits=1 events=3", stats.Stats)
	}
}
