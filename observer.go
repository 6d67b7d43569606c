package hetpipe

import "hetpipe/internal/obs"

// EventKind discriminates run-observation events.
type EventKind int

const (
	// EventMinibatch fires when a virtual worker completes one minibatch.
	EventMinibatch EventKind = iota + 1
	// EventPush fires when a virtual worker's per-wave aggregated update
	// reaches the parameter servers.
	EventPush
	// EventPull fires when a virtual worker's gated pull of the global
	// weights is satisfied.
	EventPull
	// EventClockAdvance fires when the WSP global clock is observed to
	// advance.
	EventClockAdvance
	// EventFaultInject fires when a WithFaults plan entry takes effect: a
	// straggler slowdown's first affected minibatch, a crash, a shard stall,
	// or a link degradation. Event.Fault names the fault.
	EventFaultInject
	// EventRecover fires when a crashed worker has been restored from its
	// last checkpoint and is about to replay; Event.Minibatch is the replay
	// start and (under Train) Event.Clock the checkpoint's pushed-wave count.
	EventRecover
	// EventArrive fires when a serving request enters the system and is
	// routed (Serve); Event.Request is the request id and Event.VW the
	// chosen replica.
	EventArrive
	// EventAdmit fires when the serving admission layer coalesces queued
	// requests into a microbatch; Event.Batch is the replica-local batch
	// sequence and Event.Requests the number of requests coalesced.
	EventAdmit
	// EventReply fires when a serving request's microbatch completes the
	// pipeline; Event.Request is the request id and Event.Batch its batch.
	EventReply
)

func (k EventKind) String() string {
	switch k {
	case EventMinibatch:
		return "minibatch"
	case EventPush:
		return "push"
	case EventPull:
		return "pull"
	case EventClockAdvance:
		return "clock"
	case EventFaultInject:
		return "fault-inject"
	case EventRecover:
		return "recover"
	case EventArrive:
		return "arrive"
	case EventAdmit:
		return "admit"
	case EventReply:
		return "reply"
	default:
		return "unknown"
	}
}

// Event is one observation from an in-flight run. Fields that do not apply
// to a kind are zero.
type Event struct {
	// Backend names the emitting substrate: "sim" (Simulate), "live"
	// (Train), or "serve" (Serve) — useful when one observer watches
	// several.
	Backend string
	// Kind discriminates the event.
	Kind EventKind
	// VW is the 0-based virtual worker index; -1 for cluster-wide events.
	VW int
	// Minibatch is the VW's 1-based minibatch number (EventMinibatch).
	Minibatch int
	// Wave is the 0-based wave index (EventMinibatch, EventPush).
	Wave int
	// Clock is the global clock after the event, where the emitting backend
	// knows it (clock advances and pulls always; sim pushes too).
	Clock int
	// Time is seconds since run start: virtual seconds under Simulate,
	// wall-clock seconds under Train.
	Time float64
	// Fault names the injected fault for EventFaultInject and EventRecover,
	// in the WithFaults spec language (e.g. "crash:w2:mb40").
	Fault string
	// Request is the 0-based serving request id (EventArrive, EventReply).
	Request int
	// Requests is the number of requests coalesced into the microbatch
	// (EventAdmit).
	Requests int
	// Batch is the replica-local 1-based microbatch sequence number
	// (EventAdmit, EventReply, and Serve-side EventRecover).
	Batch int
}

// Observer receives the event stream of a run (see WithObserver). All
// backends serialize their calls, so an Observer needs no internal locking;
// it runs on the hot path, so it should return quickly (hand expensive work
// to a channel or goroutine of your own).
type Observer func(Event)

// kindOf maps the internal event vocabulary onto the public one.
func kindOf(k obs.Kind) EventKind {
	switch k {
	case obs.KindMinibatch:
		return EventMinibatch
	case obs.KindPush:
		return EventPush
	case obs.KindPull:
		return EventPull
	case obs.KindClock:
		return EventClockAdvance
	case obs.KindFaultInject:
		return EventFaultInject
	case obs.KindRecover:
		return EventRecover
	case obs.KindArrive:
		return EventArrive
	case obs.KindAdmit:
		return EventAdmit
	case obs.KindReply:
		return EventReply
	default:
		return 0
	}
}

// obsFunc adapts the configured Observer to the internal backends' callback,
// or nil when no observer is configured (backends skip emission entirely).
func (s *settings) obsFunc() obs.Func {
	o := s.observer
	if o == nil {
		return nil
	}
	return func(e obs.Event) {
		o(Event{
			Backend:   e.Backend,
			Kind:      kindOf(e.Kind),
			VW:        e.VW,
			Minibatch: e.Minibatch,
			Wave:      e.Wave,
			Clock:     e.Clock,
			Time:      e.Time,
			Fault:     e.Fault,
			Request:   e.Request,
			Requests:  e.Requests,
			Batch:     e.Batch,
		})
	}
}
