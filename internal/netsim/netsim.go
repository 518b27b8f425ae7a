// Package netsim models the wireless wide-area link between the mobile
// source and the location server: delivery latency with jitter, message
// loss and disconnection windows. The paper's evaluation assumes a
// reliable link and counts messages; this package additionally enables
// the Wolfson dtdr disconnection experiments and bytes-per-hour metrics.
package netsim

import (
	"math/rand"
	"sort"
)

// Message is an opaque payload in transit.
type Message struct {
	SendT    float64
	DeliverT float64
	Size     int
	Payload  any
}

// Link models a unidirectional message channel with latency, jitter,
// random loss and scheduled disconnection windows.
type Link struct {
	// Latency is the base one-way delay in seconds.
	Latency float64
	// Jitter is the maximum additional random delay in seconds.
	Jitter float64
	// LossProb is the independent probability that a message is dropped.
	LossProb float64
	// Disconnections are time windows [From, To) during which every
	// message is dropped (mobile dead spots).
	Disconnections []Window

	rng      *rand.Rand
	inFlight []Message
	sent     int64
	dropped  int64
	bytes    int64
}

// Window is a half-open time interval.
type Window struct {
	From, To float64
}

// Contains reports whether t is inside the window.
func (w Window) Contains(t float64) bool { return t >= w.From && t < w.To }

// NewPerfect returns a link with zero latency and no loss — the paper's
// evaluation setting.
func NewPerfect() *Link { return NewLink(0, 0, 0, 0) }

// NewLink returns a link with the given characteristics.
func NewLink(seed int64, latency, jitter, lossProb float64) *Link {
	return &Link{
		Latency:  latency,
		Jitter:   jitter,
		LossProb: lossProb,
		rng:      rand.New(rand.NewSource(seed)),
	}
}

// Send enqueues a message of the given size at time now. Returns false if
// the message was dropped (loss or disconnection).
func (l *Link) Send(now float64, size int, payload any) bool {
	l.sent++
	l.bytes += int64(size)
	for _, w := range l.Disconnections {
		if w.Contains(now) {
			l.dropped++
			return false
		}
	}
	if l.LossProb > 0 && l.rng.Float64() < l.LossProb {
		l.dropped++
		return false
	}
	delay := l.Latency
	if l.Jitter > 0 {
		delay += l.rng.Float64() * l.Jitter
	}
	l.inFlight = append(l.inFlight, Message{
		SendT:    now,
		DeliverT: now + delay,
		Size:     size,
		Payload:  payload,
	})
	return true
}

// Deliverable pops all messages whose delivery time is <= now, in delivery
// order.
func (l *Link) Deliverable(now float64) []Message {
	if len(l.inFlight) == 0 {
		return nil
	}
	sort.SliceStable(l.inFlight, func(i, j int) bool {
		return l.inFlight[i].DeliverT < l.inFlight[j].DeliverT
	})
	var out []Message
	i := 0
	for ; i < len(l.inFlight); i++ {
		if l.inFlight[i].DeliverT > now {
			break
		}
		out = append(out, l.inFlight[i])
	}
	l.inFlight = l.inFlight[i:]
	return out
}

// Pending returns the number of messages in flight.
func (l *Link) Pending() int { return len(l.inFlight) }

// Sent returns the number of Send calls.
func (l *Link) Sent() int64 { return l.sent }

// Dropped returns the number of dropped messages.
func (l *Link) Dropped() int64 { return l.dropped }

// Bytes returns the total bytes offered to the link.
func (l *Link) Bytes() int64 { return l.bytes }
