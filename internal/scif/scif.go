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

// Endpoint is one side of a connected SCIF channel. A message sent to
// it waits in inbox until it lands one crossing latency later; every
// crossing into an endpoint takes the same latency and the calendar
// breaks ties in insertion order, so messages land in the order they
// were sent, and the landed ones are always at the head of inbox. Each
// endpoint has one receiver at a time (the daemon, or the client
// holding the command slot), so a landing wakes only it.
type Endpoint struct {
	eng    *sim.Engine
	lat    sim.Duration
	inbox  sim.FIFO[Msg]
	landed int         // messages at the head of inbox that have crossed
	arrive *sim.Signal // broadcast at each landing
	land   func()      // e.landOne, bound once so a crossing allocates nothing
	peer   *Endpoint
	seq    uint64
}

// Pair is a connected host/mic endpoint pair on one node.
type Pair struct {
	Host *Endpoint
	Mic  *Endpoint
}

// NewPair creates a connected channel with the platform's crossing
// latency.
func NewPair(eng *sim.Engine, plat *perfmodel.Platform) *Pair {
	h := &Endpoint{eng: eng, lat: plat.SCIFMsgLatency, arrive: sim.NewSignal(eng)}
	m := &Endpoint{eng: eng, lat: plat.SCIFMsgLatency, arrive: sim.NewSignal(eng)}
	h.peer, m.peer = m, h
	h.land, m.land = h.landOne, m.landOne
	return &Pair{Host: h, Mic: m}
}

// landOne is the callback that ends one crossing into e.
func (e *Endpoint) landOne() {
	e.landed++
	e.arrive.Broadcast()
}

// Send queues a message for the peer; it becomes receivable one
// crossing latency later. May be called from process or callback
// context.
func (e *Endpoint) Send(kind int, payload any) {
	e.seq++
	e.peer.inbox.Push(Msg{Kind: kind, Seq: e.seq, Payload: payload})
	e.eng.After(e.lat, e.peer.land)
}

// Recv blocks p until a message has landed and returns it.
func (e *Endpoint) Recv(p *sim.Proc) Msg {
	for e.landed == 0 {
		e.arrive.Wait(p)
	}
	e.landed--
	return e.inbox.Pop()
}

// Call is the client-side request/response idiom: send a request and
// block until the next reply arrives on this endpoint. The DCFA CMD
// client uses this for every delegated verb.
func (e *Endpoint) Call(p *sim.Proc, kind int, payload any) Msg {
	e.Send(kind, payload)
	return e.Recv(p)
}
