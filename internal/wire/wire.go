// Package wire defines the lockd network protocol, version 4:
// length-prefixed binary frames over a byte stream carrying a hello
// exchange, session lifecycle requests (open / step / commit / abort),
// session resumption (resume), a one-round-trip stored-procedure mode
// (run), and diagnostics (stats / inspect). It is shared by the server
// (internal/server) and the Go client (pkg/client); docs/PROTOCOL.md is
// the normative description, with a worked hex transcript that
// ExampleWriter reproduces.
//
// Framing: every frame is a 4-byte big-endian payload length followed
// by that many payload bytes: a 0xB3 magic byte, a message count, and
// that many compact binary messages (binary.go). Every frame in both
// directions, the hello exchange included, has this shape, so a
// pipelined burst costs one frame (and typically one syscall) per
// direction instead of one per step. Frames are bounded by MaxFrame; an
// oversized length is a protocol error and the peer closes the
// connection.
//
// Pipelining: a client may send further requests before earlier
// responses arrive. Responses carry the request's id and may arrive out
// of order — requests for the *same* session are executed in
// submission order, requests for different sessions (and diagnostics)
// are concurrent. Step and commit requests carry the client's attempt
// tag; the server refuses (without executing) any tagged below the
// session's current attempt, so pipelined steps of an already-aborted
// attempt are drained as stale instead of being mistaken for the
// retry's resubmission.
package wire

import "locksafe/internal/model"

// Version is the protocol version spoken by this tree, and the only
// one: a hello naming any other version is refused with CodeVersion.
// The hello request and its answer keep the same binary layout in every
// version (PROTOCOL.md §3), so a mismatch is always answerable.
const Version = 4

// MaxFrame bounds a frame's payload (requests and responses); the
// dominant size is a declared transaction body or an inspect log dump.
// Writers split a larger burst across several frames.
const MaxFrame = 1 << 20

// Request ops.
const (
	OpHello   = "hello"
	OpOpen    = "open"
	OpStep    = "step"
	OpCommit  = "commit"
	OpAbort   = "abort"
	OpRun     = "run"
	OpStats   = "stats"
	OpInspect = "inspect"
	// OpResume reattaches a parked session: the client re-sends the
	// declared body (as at open) plus the session's sid and the resume
	// token the open response carried. On success the session is live
	// again with a fresh attempt counter (Response.Attempt) and the
	// client replays its steps from the first.
	OpResume = "resume"
)

// Response codes (Code is set only when OK is false). CodeAborted is
// the one retryable failure: the session survives and the client may
// re-send the declared steps from the first. Everything else is
// terminal for the session (or the request).
const (
	CodeAborted   = "aborted"     // attempt torn down; session open, retry from step 0
	CodeAbandoned = "abandoned"   // retry budget exhausted; session finished
	CodeExpired   = "expired"     // lease expired; session finished
	CodeClosed    = "closed"      // server draining or engine closed
	CodeDone      = "done"        // session already committed/aborted or unknown sid
	CodeMismatch  = "mismatch"    // step does not match the declared body
	CodeMalformed = "malformed"   // declared body rejected (well-formedness)
	CodeBadReq    = "bad-request" // undecodable frame, bad entity index, missing field
	CodeVersion   = "version"     // hello version mismatch
	CodeInternal  = "internal"    // engine failure; the server is dying
)

// Request is a client→server message.
type Request struct {
	ID uint64
	Op string
	// Version accompanies hello.
	Version int
	// Name, Table and CSteps accompany open, run and resume: the
	// transaction's display name and its declared body as an entity
	// table (distinct entities in order of first appearance) plus one
	// compact step per declared step, indexed against the table.
	Name   string
	Table  []model.Entity
	CSteps []model.CompactStep
	// SID addresses an open session (step, commit, abort, resume).
	SID uint64
	// CStep is the submitted step of a step request, indexed against
	// the table the session declared at open.
	CStep model.CompactStep
	// Attempt tags step and commit requests with the client's retry
	// attempt (0 for the first). The server executes the request only
	// when the tag equals the session's current attempt; a lower tag is
	// a late message of a torn-down attempt and is refused CodeAborted
	// without touching the session.
	Attempt int
	// Token accompanies resume: the resume token issued by the open
	// response of the session being reattached.
	Token uint64
}

// DeclaredSteps expands an open/run/resume request's declared body.
func (r *Request) DeclaredSteps() ([]model.Step, error) {
	return model.ExpandCompact(r.Table, r.CSteps)
}

// Response is a server→client message.
type Response struct {
	ID   uint64
	OK   bool
	Code string
	Err  string
	// Version and Policy answer hello.
	Version int
	Policy  string
	// SID answers open and resume, and echoes the session on session
	// ops.
	SID uint64
	// Token answers open and resume: the resume token to present with a
	// later resume of this session.
	Token uint64
	// Attempt answers resume: the attempt tag the reattached session's
	// next step must carry (the attempt counter restarts at 0).
	Attempt int
	// Stats answers stats; Inspect answers inspect.
	Stats   *Stats
	Inspect *Inspect
}

// Stats mirrors runtime.Metrics plus the open-session gauge; durations
// travel as nanoseconds.
type Stats struct {
	Commits        int
	GaveUp         int
	DeadlockAborts int
	PolicyAborts   int
	ImproperAborts int
	CascadeAborts  int
	LeaseExpired   int
	Events         int
	Replayed       int
	OpenSessions   int
	WaitNS         int64
	ElapsedNS      int64
}

// Inspect is the diagnostic world-state snapshot: the surviving log,
// the structural state, the policy monitor's key and the log's
// serializability verdict (the equivalence-test digest vocabulary).
type Inspect struct {
	Log          string
	State        string
	MonitorKey   string
	Serializable bool
	Stats        Stats
}
