package wire

import (
	"fmt"

	"dbproc/internal/costmodel"
	"dbproc/internal/metric"
)

// Frame type bytes. Requests and responses share one space; each
// request type documents its response type.
const (
	// THello opens a connection (client → server); the server answers
	// THelloOK or TError. It must be the first frame on the wire.
	THello byte = iota + 1
	THelloOK
	// TPing answers TPong; a no-op round-trip for liveness checks and
	// driver Ping/IsValid.
	TPing
	TPong
	// TCancel aborts the connection's in-flight request. It is the only
	// frame with no response of its own; the aborted request still gets
	// its response (normally TError with CodeCancelled).
	TCancel
	// TOK acknowledges requests with no other payload (close frames,
	// commit, rollback).
	TOK
	TError

	// TStmt executes one QUEL statement; answers TResult or TError.
	TStmt
	// TPrepare parses a statement for repeated execution; answers
	// TPrepared with the statement handle.
	TPrepare
	TPrepared
	// TStmtExec executes a prepared statement; answers TResult.
	TStmtExec
	// TStmtClose frees a statement handle; answers TOK.
	TStmtClose

	// TBegin opens a transaction; answers TBegun with the tx handle.
	TBegin
	TBegun
	// TCommit / TRollback end a transaction; answer TOK.
	TCommit
	TRollback

	// TFetch pulls the next rows of an open cursor; answers TFetched.
	TFetch
	TFetched
	// TCursorClose frees a cursor handle; answers TOK.
	TCursorClose

	// TResult is the response to TStmt / TStmtExec.
	TResult

	// TWorldOpen builds a benchmark world (sim.Build + engine.New) on the
	// server; answers TWorldOpened. TWorldNext executes one dealt
	// operation for a session (answers TWorldStep), TWorldStats closes
	// the sessions and reports the run's aggregate (answers
	// TWorldStatsResult), TWorldClose frees the world (answers TOK).
	TWorldOpen
	TWorldOpened
	TWorldNext
	TWorldStep
	TWorldStats
	TWorldStatsResult
	TWorldClose
)

// Error codes.
const (
	// CodeParse: the statement failed to parse.
	CodeParse = "parse"
	// CodeExec: the statement parsed but failed to execute.
	CodeExec = "exec"
	// CodeBusy: the target (a world session) already has a request in
	// flight.
	CodeBusy = "busy"
	// CodeLimit: a bounded handle table or the admission gate is full,
	// or the response does not fit in one frame.
	CodeLimit = "limit"
	// CodeBadHandle: the request named a handle this connection does not
	// hold.
	CodeBadHandle = "bad_handle"
	// CodeCancelled: the request was aborted by TCancel or by the client
	// vanishing.
	CodeCancelled = "cancelled"
	// CodeDraining: the server is shutting down and admits no new work.
	CodeDraining = "draining"
	// CodeProtocol: the frame sequence itself was invalid.
	CodeProtocol = "protocol"
)

// TraceContext is the trace identity a client propagates with a
// request (docs/TRACING.md). The server adopts it: the request's
// server-side span is created with SpanID as its parent, under TraceID.
// It is encoded after the request's own fields, behind a presence byte,
// so a request without one is a strict prefix of the same request with
// one (TestTracingOffByteIdentity).
type TraceContext struct {
	// TraceID names the end-to-end trace (one driver call, usually).
	TraceID string
	// SpanID is the client-side span the server's span nests under.
	SpanID string
	// Sampled asks the server to export the request's span; an
	// unsampled context still propagates identity for flight events.
	Sampled bool
}

// ServerBreakdown partitions a request's server-side wall time exactly:
//
//	WallNs = AdmissionNs + GateNs + LockWaitNs + IONs + RecomputeNs + ComputeNs
//
// WallNs here is the full service time from frame dispatch to response
// build (a superset of the legacy Result.WallNs, which times execution
// only and is unchanged). AdmissionNs is pre-execution overhead
// (decode, parse, handle lookup, world bookkeeping), GateNs the
// statement-gate queue, LockWaitNs the engine lock-table wait, IONs and
// RecomputeNs the engine critical-path segments, and ComputeNs the
// remainder — computed as WallNs minus the others, so the sum-to-total
// invariant holds by construction and is asserted end to end by
// TestServerBreakdownSumsToWall and proctrace -check.
type ServerBreakdown struct {
	// SpanID is the server-side span exported for this request, a child
	// of the propagated TraceContext.SpanID.
	SpanID      string
	WallNs      int64
	AdmissionNs int64
	GateNs      int64
	LockWaitNs  int64
	IONs        int64
	RecomputeNs int64
	ComputeNs   int64
}

// SegmentSum adds the six segments; it equals WallNs on any breakdown
// the server builds.
func (b *ServerBreakdown) SegmentSum() int64 {
	return b.AdmissionNs + b.GateNs + b.LockWaitNs + b.IONs + b.RecomputeNs + b.ComputeNs
}

// Hello opens the connection.
type Hello struct {
	// Version is the protocol version the client speaks; the server
	// rejects versions it does not know.
	Version int `json:"version"`
	// Client names the connecting program (diagnostics only).
	Client string `json:"client,omitempty"`
}

// Version is the protocol version this package implements: 2, the
// binary payload codec (codec.go). Version 1 carried JSON payloads.
const Version = 2

// HelloOK acknowledges Hello.
type HelloOK struct {
	Version int `json:"version"`
	// Server names the serving program.
	Server string `json:"server,omitempty"`
}

// Error is the failure response to any request. It implements error so
// clients can surface it directly.
type Error struct {
	Code string
	Msg  string
}

func (e *Error) Error() string { return fmt.Sprintf("dbproc: %s: %s", e.Code, e.Msg) }

// Ping has no fields; Pong answers it.
type Ping struct{}

// Pong answers Ping.
type Pong struct{}

// Cancel aborts the connection's in-flight request. No response.
type Cancel struct{}

// OK acknowledges a request with no other payload.
type OK struct{}

// Stmt executes one QUEL statement.
type Stmt struct {
	Text string
	// Tx scopes the statement to an open transaction handle; 0 runs it
	// auto-committed.
	Tx int
	// Cursor asks for cursored delivery: the Result carries the first
	// Fetch rows plus a cursor handle for the rest.
	Cursor bool
	// Fetch is the first-batch row cap when Cursor is set (server
	// default if 0). No batch exceeds the rows that fit in its frame.
	Fetch int
	// Trace is the propagated trace context (nil when untraced).
	Trace *TraceContext
}

// Prepare parses a statement for repeated execution.
type Prepare struct {
	Text string
	// Trace is the propagated trace context (nil when untraced).
	Trace *TraceContext
}

// Prepared answers Prepare.
type Prepared struct {
	// Stmt is the statement handle.
	Stmt int
}

// StmtExec executes a prepared statement. Fields as in Stmt.
type StmtExec struct {
	Stmt   int
	Tx     int
	Cursor bool
	Fetch  int
	// Trace is the propagated trace context (nil when untraced).
	Trace *TraceContext
}

// StmtClose frees a statement handle.
type StmtClose struct {
	Stmt int
	// Trace is the propagated trace context (nil when untraced).
	Trace *TraceContext
}

// Begin opens a transaction.
type Begin struct {
	// Trace is the propagated trace context (nil when untraced).
	Trace *TraceContext
}

// Begun answers Begin.
type Begun struct {
	Tx int
}

// Commit commits a transaction.
type Commit struct {
	Tx int
	// Trace is the propagated trace context (nil when untraced).
	Trace *TraceContext
}

// Rollback rolls a transaction back.
type Rollback struct {
	Tx int
	// Trace is the propagated trace context (nil when untraced).
	Trace *TraceContext
}

// Fetch pulls the next rows of a cursor.
type Fetch struct {
	Cursor int
	// Max caps the batch (server default if 0). No batch exceeds the
	// rows that fit in its frame.
	Max int
	// Trace is the propagated trace context (nil when untraced).
	Trace *TraceContext
}

// Fetched answers Fetch.
type Fetched struct {
	Rows [][]int64
	// More reports whether the cursor still holds rows; false means the
	// server already freed the handle.
	More bool
}

// CursorClose frees a cursor handle.
type CursorClose struct {
	Cursor int
	// Trace is the propagated trace context (nil when untraced).
	Trace *TraceContext
}

// Section is one further result set of a multi-query procedure.
type Section struct {
	Columns []string
	Rows    [][]int64
}

// Result is the response to Stmt / StmtExec.
type Result struct {
	// Message summarizes non-row results ("created emp", "appended", ...).
	Message string
	// Columns and Rows carry retrieve/execute output (the first batch
	// under cursored delivery).
	Columns []string
	Rows    [][]int64
	// Sections carries the further result sets of a multi-query
	// procedure.
	Sections []Section
	// Affected counts tuples changed by append/delete/replace (the
	// driver's RowsAffected).
	Affected int64
	// CostMs is the statement's simulated cost; WallNs its wall-clock
	// service time on the server (per-op latency attribution surviving
	// the hop).
	CostMs float64
	WallNs int64
	// Cursor and More are set under cursored delivery: the handle to
	// Fetch the remaining rows from, and whether any remain.
	Cursor int
	More   bool
	// Server is the exact server-side wall-time partition, attached
	// only when the request carried a trace context.
	Server *ServerBreakdown
}

// WorldOpen builds a benchmark world on the server: sim.Build(cfg) plus
// engine.New with the given session count, history recording on. The
// world's handle is server-global (worlds outlive any one connection's
// request, and several connections drive one world's sessions).
type WorldOpen struct {
	Params   costmodel.Params `json:"params"`
	Model    string           `json:"model"`
	Strategy string           `json:"strategy"`
	Seed     int64            `json:"seed"`
	Adaptive bool             `json:"adaptive,omitempty"`
	// Scenario names a hostile-workload scenario from the workload
	// catalog (sim.Config.Scenario); empty runs the polite workload.
	Scenario string `json:"scenario,omitempty"`
	// R2UpdateFraction is sim.Config.R2UpdateFraction.
	R2UpdateFraction float64 `json:"r2_update_fraction,omitempty"`
	// Clients is the session count the workload is dealt across.
	Clients int `json:"clients"`
	// Ledger attaches a cache-efficacy ledger; its bytes come back in
	// WorldStatsResult.
	Ledger bool `json:"ledger,omitempty"`
	// CritPath enables per-op critical-path decomposition; the segments
	// ride on each WorldStep.
	CritPath bool `json:"critpath,omitempty"`
}

// WorldOpened answers WorldOpen.
type WorldOpened struct {
	// World is the world handle.
	World int
	// Sessions echoes the session count; Ops is the dealt per-session
	// operation count (engine.Deal of the canonical stream).
	Sessions int
	Ops      []int
}

// WorldNext executes session Session's next dealt operation.
type WorldNext struct {
	World   int
	Session int
	// Trace is the propagated trace context (nil when untraced).
	Trace *TraceContext
}

// WorldStep answers WorldNext: one committed operation's attributes, or
// Done when the session's stream is drained.
type WorldStep struct {
	// Done is set when the session has no operations left; the other
	// fields are then zero.
	Done bool
	// Seq is the engine's global commit sequence.
	Seq int
	// Update distinguishes update ops from queries.
	Update bool
	// Tuples counts the query's result tuples.
	Tuples int
	// CostMs is the op's simulated cost; the *Ns fields are the per-op
	// wall-clock critical path (docs/DIAGNOSIS.md) — IONs, RecomputeNs
	// and ComputeNs only under WorldOpen.CritPath.
	CostMs      float64
	WallNs      int64
	WaitNs      int64
	IONs        int64
	RecomputeNs int64
	ComputeNs   int64
	// Phase names the op's scenario phase (empty on polite workloads).
	Phase string
	// Server is the exact server-side wall-time partition, attached
	// only when the request carried a trace context.
	Server *ServerBreakdown
}

// WorldStats seals the world's sessions and reports the run aggregate.
type WorldStats struct {
	World int
	// Trace is the propagated trace context (nil when untraced).
	Trace *TraceContext
}

// WorldStatsResult answers WorldStats.
type WorldStatsResult struct {
	Ops     int `json:"ops"`
	Queries int `json:"queries"`
	Updates int `json:"updates"`
	Tuples  int `json:"tuples"`
	// SimTotalMs and Counters are the run's simulated cost, the
	// quantities the identity test compares against sim.Run.
	SimTotalMs float64         `json:"sim_total_ms"`
	Counters   metric.Counters `json:"counters"`
	// HistoryDigest is the world engine's running digest of the committed
	// history in commit order (session, seq, op kind, proc, index, result
	// digest, tuple count, cost): engine.Result.HistoryDigest.
	HistoryDigest string `json:"history_digest,omitempty"`
	// Ledger is the cache-efficacy ledger serialized by
	// cache.WriteLedger; nil unless WorldOpen.Ledger.
	Ledger []byte `json:"ledger,omitempty"`
}

// WorldClose frees the world handle.
type WorldClose struct {
	World int
}

// Attach sets the trace context on a request message that carries one
// and reports whether it did. Handshake, liveness and cancel frames
// carry no context (TCancel aborts the request that did).
func Attach(msg any, tc *TraceContext) bool {
	t, ok := msg.(traced)
	if ok {
		*t.traceSlot() = tc
	}
	return ok
}

// TraceOf returns the trace context a decoded request carries (nil when
// untraced or the frame type has no trace field).
func TraceOf(msg any) *TraceContext {
	if t, ok := msg.(traced); ok {
		return *t.traceSlot()
	}
	return nil
}

// Name returns the short request name used for span names, flight
// events and the per-type latency histograms ("stmt", "world.next", ...).
func Name(typ byte) string {
	switch typ {
	case TPing:
		return "ping"
	case TStmt:
		return "stmt"
	case TPrepare:
		return "prepare"
	case TStmtExec:
		return "stmt.exec"
	case TStmtClose:
		return "stmt.close"
	case TBegin:
		return "begin"
	case TCommit:
		return "commit"
	case TRollback:
		return "rollback"
	case TFetch:
		return "fetch"
	case TCursorClose:
		return "cursor.close"
	case TWorldOpen:
		return "world.open"
	case TWorldNext:
		return "world.next"
	case TWorldStats:
		return "world.stats"
	case TWorldClose:
		return "world.close"
	default:
		return fmt.Sprintf("frame.%d", typ)
	}
}

// Decode decodes a frame payload into its message struct. newMessage is
// the single table tying type bytes to payload shapes; unknown type
// bytes are an error. The message keeps no reference to payload.
// FuzzFrameDecode drives every arm with adversarial payloads.
func Decode(typ byte, payload []byte) (any, error) {
	msg := newMessage(typ)
	if msg == nil {
		return nil, fmt.Errorf("wire: unknown frame type %d", typ)
	}
	if err := msg.decode(payload); err != nil {
		return nil, fmt.Errorf("wire: decode type %d: %w", typ, err)
	}
	return msg, nil
}

// newMessage returns an empty message of the frame type, nil for a type
// byte the protocol does not define.
func newMessage(typ byte) message {
	switch typ {
	case THello:
		return &Hello{}
	case THelloOK:
		return &HelloOK{}
	case TPing:
		return &Ping{}
	case TPong:
		return &Pong{}
	case TCancel:
		return &Cancel{}
	case TOK:
		return &OK{}
	case TError:
		return &Error{}
	case TStmt:
		return &Stmt{}
	case TPrepare:
		return &Prepare{}
	case TPrepared:
		return &Prepared{}
	case TStmtExec:
		return &StmtExec{}
	case TStmtClose:
		return &StmtClose{}
	case TBegin:
		return &Begin{}
	case TBegun:
		return &Begun{}
	case TCommit:
		return &Commit{}
	case TRollback:
		return &Rollback{}
	case TFetch:
		return &Fetch{}
	case TFetched:
		return &Fetched{}
	case TCursorClose:
		return &CursorClose{}
	case TResult:
		return &Result{}
	case TWorldOpen:
		return &WorldOpen{}
	case TWorldOpened:
		return &WorldOpened{}
	case TWorldNext:
		return &WorldNext{}
	case TWorldStep:
		return &WorldStep{}
	case TWorldStats:
		return &WorldStats{}
	case TWorldStatsResult:
		return &WorldStatsResult{}
	case TWorldClose:
		return &WorldClose{}
	}
	return nil
}
