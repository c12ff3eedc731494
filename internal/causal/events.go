// Package causal is the deterministic cross-rank causal profiler: it
// consumes structured lifecycle events emitted by core, dcfa, ib, and
// pcie, builds the cross-rank happens-before graph, detects the classic
// MPI inefficiency patterns (late sender, late receiver, wait at
// collective, rendezvous mispredict, ANY_SOURCE serialization),
// extracts the critical path of the run, and attributes every
// nanosecond on it to a category.
//
// The package is strictly passive: a Recorder only appends fixed-size
// value records and never touches the engine, so profiling on/off runs
// share the same Engine.Fingerprint().
package causal

import "repro/internal/sim"

// Kind identifies one lifecycle event class.
type Kind uint8

const (
	// Message lifecycle (rank timeline).
	EvSendPost Kind = iota + 1 // Isend posted (Seq valid for remote sends)
	EvRecvPost                 // Irecv posted (Peer == -1 for ANY_SOURCE)
	EvRecvBind                 // receive bound to a (peer, seq) pair
	EvSendDone                 // send request completed (Proto resolved)
	EvRecvDone                 // receive request completed (Proto resolved)

	// Transport (rank timeline).
	EvPktSend // packet written toward Peer (PSN, Pkt valid)
	EvPktRecv // packet consumed from Peer's ring (PSN, Pkt valid)
	EvWRPost  // rendezvous RDMA work request posted (Aux = wrid)
	EvCQE     // completion consumed (Aux = wrid, Pkt = wrKind)

	// Blocking regions and collectives (rank timeline).
	EvWaitStart // Rank.Wait entered with an incomplete request
	EvWaitEnd   // Rank.Wait satisfied
	EvCollEnter // symmetric collective entered (Aux = collective seq)
	EvCollExit  // symmetric collective left (Aux = collective seq)

	// ANY_SOURCE serialization (rank timeline).
	EvAnyLock // wildcard receive took the sequence-assignment lock
	EvDefer   // receive deferred behind an active wildcard

	// Protocol misprediction and fault recovery (rank timeline).
	EvMispredict // eager/rendezvous protocol misprediction observed
	EvQPReset    // errored QP reset + reconnected
	EvReplay     // WR replayed after retry exhaustion (Aux = wrid)
	EvReplayDrop // inbound replayed packet deduped by PSN
	EvFallback   // DMA-abort offload fallback to direct send
	EvDMASync    // offload staging DMA finished (Aux = duration ns)

	// Node-layer events (Rank == -1; tallied, not on rank timelines).
	EvCmdDone // DCFA command-channel call finished (Aux = duration ns)
	EvDMADone // PCIe DMA engine copy finished (Aux = duration ns)
	EvHWCQE   // hardware pushed a completion (Aux = wrid)
)

var kindNames = [...]string{
	EvSendPost:   "send-post",
	EvRecvPost:   "recv-post",
	EvRecvBind:   "recv-bind",
	EvSendDone:   "send-done",
	EvRecvDone:   "recv-done",
	EvPktSend:    "pkt-send",
	EvPktRecv:    "pkt-recv",
	EvWRPost:     "wr-post",
	EvCQE:        "cqe",
	EvWaitStart:  "wait-start",
	EvWaitEnd:    "wait-end",
	EvCollEnter:  "coll-enter",
	EvCollExit:   "coll-exit",
	EvAnyLock:    "any-lock",
	EvDefer:      "any-defer",
	EvMispredict: "mispredict",
	EvQPReset:    "qp-reset",
	EvReplay:     "wr-replay",
	EvReplayDrop: "replay-drop",
	EvFallback:   "offload-fallback",
	EvDMASync:    "dma-sync",
	EvCmdDone:    "cmd-done",
	EvDMADone:    "dma-done",
	EvHWCQE:      "hw-cqe",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return "unknown"
}

// Protocol classification carried on *Done events. core uses these
// codes as its own, and ProtoName for span kinds and counter names.
const (
	ProtoUnknown uint8 = iota
	ProtoEager
	ProtoSenderRzv
	ProtoRecvRzv
	ProtoSimulRzv
	ProtoSelf
)

var protoNames = [...]string{
	ProtoUnknown:   "unknown",
	ProtoEager:     "eager",
	ProtoSenderRzv: "sender-rzv",
	ProtoRecvRzv:   "recv-rzv",
	ProtoSimulRzv:  "simultaneous-rzv",
	ProtoSelf:      "self",
}

// ProtoName returns the printable name of a protocol code.
func ProtoName(p uint8) string {
	if int(p) < len(protoNames) {
		return protoNames[p]
	}
	return "unknown"
}

// Packet kinds of core's wire headers, defined here so the graph layer
// can classify cross-rank edges without importing core (core imports
// us); core declares its packet kinds from these.
const (
	PktEager  uint8 = 1
	PktRTS    uint8 = 2
	PktRTR    uint8 = 3
	PktDone   uint8 = 4
	PktCredit uint8 = 5
	PktNack   uint8 = 6
	PktDoneW  uint8 = 7
	PktNackW  uint8 = 8
)

// Work-request kinds carried in Pkt on EvWRPost/EvCQE; core declares its
// wrKind values from these, and zero stays "unset".
const (
	WREager     uint8 = 1
	WRCtrl      uint8 = 2
	WRRndvWrite uint8 = 3
	WRRndvRead  uint8 = 4
)

// Event is one structured lifecycle record. Events are fixed-size
// values: recording allocates nothing but the slice growth.
type Event struct {
	T    sim.Time
	Kind Kind

	// Rank is the emitting rank, or -1 for node-layer events.
	Rank int32
	// Peer is the remote rank (-1 when not applicable).
	Peer int32
	// Tag is the MPI tag for message events, or the collective op code
	// for EvCollEnter/EvCollExit.
	Tag int32

	// Pkt is the wire packet kind (EvPktSend/EvPktRecv) or WR kind
	// (EvWRPost/EvCQE).
	Pkt uint8
	// Proto is the resolved protocol on EvSendDone/EvRecvDone.
	Proto uint8
	// Wait marks events emitted while the rank was blocked inside
	// Rank.Wait (the progress engine runs in the waiter's context).
	Wait bool

	// Seq is the per-directed-pair message sequence id.
	Seq uint64
	// PSN is the transport packet sequence number (pkt events).
	PSN uint64
	// CID is the rank-local request id (message lifecycle events).
	CID uint64
	// Aux is event-specific: wrid, collective seq, or a duration in
	// nanoseconds (EvDMASync/EvCmdDone/EvDMADone).
	Aux uint64

	// Bytes is the payload size when the event concerns data movement.
	Bytes int32
}

// Recorder accumulates events. A nil *Recorder is a valid disabled
// recorder: Emit on nil is a no-op, so call sites need no guard.
type Recorder struct {
	events []Event
}

// New returns an empty Recorder.
func New() *Recorder { return &Recorder{} }

// Emit appends one event. Safe on a nil receiver.
func (r *Recorder) Emit(e Event) {
	if r == nil {
		return
	}
	r.events = append(r.events, e)
}

// Events returns the recorded events in emission order (which is
// engine-dispatch order, hence deterministic).
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	return r.events
}

// Len returns the number of recorded events.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	return len(r.events)
}

// Reset drops all recorded events, keeping capacity.
func (r *Recorder) Reset() {
	if r == nil {
		return
	}
	r.events = r.events[:0]
}
