package telemetry

import (
	"fmt"
	"sync"
	"time"
)

// Event is one structured log entry: a formatted message tagged with the
// FL round and client it concerns (-1 when not applicable).
type Event struct {
	// Time is when the event was recorded.
	Time time.Time
	// Round is the FL round the event belongs to, -1 if none.
	Round int
	// Client is the client id the event concerns, -1 if none.
	Client int
	// Msg is the fully formatted, single-line message.
	Msg string
}

// EventLog is a serialized structured logger: every Eventf call formats
// its message, appends it to a bounded ring of recent events, and hands
// the whole line to the sink — all under one mutex, so lines from
// concurrent goroutines can never interleave mid-line no matter what the
// sink does internally. The sink must not call back into the log.
type EventLog struct {
	mu   sync.Mutex
	sink func(line string)
	ring []Event
	next int // ring write cursor
	n    int // events stored (≤ len(ring))
}

// NewEventLog returns a log keeping the most recent capacity events
// (minimum 1) and forwarding each whole line to sink (nil for none).
func NewEventLog(capacity int, sink func(line string)) *EventLog {
	if capacity < 1 {
		capacity = 1
	}
	return &EventLog{ring: make([]Event, capacity), sink: sink}
}

// Eventf records one structured event. The message is formatted and the
// sink invoked under the log's mutex, so concurrent callers emit whole,
// non-interleaved lines in a single total order.
func (l *EventLog) Eventf(round, client int, format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	l.mu.Lock()
	defer l.mu.Unlock()
	l.ring[l.next] = Event{Time: time.Now(), Round: round, Client: client, Msg: msg}
	l.next = (l.next + 1) % len(l.ring)
	if l.n < len(l.ring) {
		l.n++
	}
	if l.sink != nil {
		l.sink(msg)
	}
}

// Events returns the retained events, oldest first.
func (l *EventLog) Events() []Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Event, 0, l.n)
	start := l.next - l.n
	if start < 0 {
		start += len(l.ring)
	}
	for i := 0; i < l.n; i++ {
		out = append(out, l.ring[(start+i)%len(l.ring)])
	}
	return out
}
