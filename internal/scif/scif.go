// Package scif models the Symmetric Communication Interface: the
// message channel between a node's host processor and its Xeon Phi
// card that DCFA's command offloading (and Intel's IB proxy daemon)
// ride on. Each message crossing the PCIe boundary costs one calibrated
// latency; payloads are delivered in order.
package scif

import (
	"repro/internal/perfmodel"
	"repro/internal/sim"
)

// Msg is one command-channel message.
type Msg struct {
	Kind    int
	Seq     uint64
	Payload any
}

// Endpoint is one side of a connected SCIF channel.
type Endpoint struct {
	eng   *sim.Engine
	lat   sim.Duration
	inbox *sim.Queue[Msg]
	peer  *Endpoint
	seq   uint64
}

// Pair is a connected host/mic endpoint pair on one node.
type Pair struct {
	Host *Endpoint
	Mic  *Endpoint
}

// NewPair creates a connected channel with the platform's crossing
// latency.
func NewPair(eng *sim.Engine, plat *perfmodel.Platform) *Pair {
	h := &Endpoint{eng: eng, lat: plat.SCIFMsgLatency, inbox: sim.NewQueue[Msg](eng)}
	m := &Endpoint{eng: eng, lat: plat.SCIFMsgLatency, inbox: sim.NewQueue[Msg](eng)}
	h.peer, m.peer = m, h
	return &Pair{Host: h, Mic: m}
}

// Send queues a message for the peer; it becomes receivable one
// crossing latency later. May be called from process or callback
// context.
func (e *Endpoint) Send(kind int, payload any) {
	e.seq++
	msg := Msg{Kind: kind, Seq: e.seq, Payload: payload}
	peer := e.peer
	e.eng.After(e.lat, func() {
		peer.inbox.Put(msg)
	})
}

// Recv blocks p until a message arrives and returns it.
func (e *Endpoint) Recv(p *sim.Proc) Msg {
	return e.inbox.Get(p)
}

// Call is the client-side request/response idiom: send a request and
// block until the next reply arrives on this endpoint. The DCFA CMD
// client uses this for every delegated verb.
func (e *Endpoint) Call(p *sim.Proc, kind int, payload any) Msg {
	e.Send(kind, payload)
	return e.Recv(p)
}
