package core

import (
	"errors"
	"strconv"
)

// Exported error conditions of the MPI layer.
var (
	// ErrTruncate reports a message longer than the posted receive
	// buffer (including the §IV-B3 sender-rendezvous/receiver-eager
	// mis-prediction, where "the receiver will issue an MPI error").
	ErrTruncate = errors.New("core: message truncated: send larger than receive buffer")
	// ErrTagMismatch reports a tag disagreement between the send and
	// the receive holding the same per-pair sequence id.
	ErrTagMismatch = errors.New("core: tag mismatch at matching sequence id")
	// ErrNoOffload reports use of the offload send-buffer verbs on a
	// provider without them (host MPI, proxied MPI).
	ErrNoOffload = errors.New("core: offload send buffer not supported by this provider")
	// ErrBadRank reports a source or destination outside the world.
	ErrBadRank = errors.New("core: rank out of range")
	// ErrBadTag reports a communicator point-to-point tag outside
	// [0, 65536), the range a Comm can map into its private tag space.
	ErrBadTag = errors.New("core: communicator tag out of range")
)

// TransportError reports a work request that exhausted its replay
// budget under a fault plan: the QP was reset and reconnected, the WR
// reissued, and it kept failing. Unrecoverable by design — it surfaces
// as a typed rank error instead of a deadlock.
type TransportError struct {
	Peer  int    // remote rank the WR targeted
	Op    string // work-request kind ("eager", "ctrl", "rndv-write", "rndv-read")
	Tries int    // attempts made (original post + replays)
}

func (e *TransportError) Error() string {
	// Reachable from the progress loop through the error interface, so
	// avoid fmt's interface boxing.
	return "core: " + e.Op + " transfer to rank " + strconv.Itoa(e.Peer) +
		" failed after " + strconv.Itoa(e.Tries) + " attempts"
}

// Special rank and tag wildcards, mirroring MPI_ANY_SOURCE/MPI_ANY_TAG.
const (
	AnySource = -1
	AnyTag    = -1
)
