package sim

// Direction labels a transfer on the link.
type Direction uint8

const (
	// HostToDevice moves pages from CPU memory to GPU memory.
	HostToDevice Direction = iota
	// DeviceToHost moves pages from GPU memory back to the CPU backing store.
	DeviceToHost
)

func (d Direction) String() string {
	if d == HostToDevice {
		return "H2D"
	}
	return "D2H"
}

// TransferPerturber lets a fault-injection layer (internal/chaos) perturb
// individual transfers: it receives the scheduled start time, size,
// direction, and unperturbed occupancy of a transfer and returns the
// occupancy to charge, never negative, plus whether the transfer
// transiently fails. A failed transfer still occupies the link (the attempt
// ran and delivered garbage); the caller decides whether and when to retry.
type TransferPerturber interface {
	PerturbTransfer(at Time, n int64, dir Direction, base Duration) (Duration, bool)
}

// Link models the PCIe interconnect as a single serialized resource. The
// DeepUM migration thread owns it: fault migrations always run before queued
// prefetch commands, but an in-flight transfer is never aborted (transfers
// preempt at transfer granularity, matching the migration thread of §3.1).
//
// Link keeps only the end of the current reservation plus aggregate traffic
// counters; callers supply the earliest start time and receive the interval
// actually occupied.
type Link struct {
	params   Params
	busyUnt  Time
	timeline *Timeline
	perturb  TransferPerturber
	observe  TransferObserver

	bytesH2D int64
	bytesD2H int64
	nH2D     int64
	nD2H     int64
}

// TransferObserver receives every completed link reservation: the occupied
// interval, size, direction, and whether the attempt transiently failed.
// Installed by the tracing layer; sim itself stays observer-agnostic (a
// plain callback, so this package never imports the obs event taxonomy).
type TransferObserver func(start, end Time, n int64, dir Direction, failed bool)

// NewLink returns an idle link using the transfer-time model of p. The
// timeline, if non-nil, records busy intervals for energy integration.
func NewLink(p Params, tl *Timeline) *Link {
	return &Link{params: p, timeline: tl}
}

// BusyUntil reports the instant the link becomes free.
func (l *Link) BusyUntil() Time { return l.busyUnt }

// SetPerturber installs a fault injector; nil removes it.
func (l *Link) SetPerturber(p TransferPerturber) { l.perturb = p }

// SetObserver installs a transfer observer; nil removes it.
func (l *Link) SetObserver(o TransferObserver) { l.observe = o }

// MaxTransferRetries caps the retries of a transfer that cannot give up
// (Reserve, the demand fault handler). The fault injector bounds
// consecutive failures well below it, so the cap is a defensive backstop:
// past it the transfer counts as delivered (a real driver would reset the
// link).
const MaxTransferRetries = 16

// RetryBackoff is the virtual-time wait before retry attempt (0-indexed) of
// a transiently failed transfer: 10 µs, doubling, capped at attempt 6
// (640 µs). Every retrying transfer uses it, so a flaky link degrades
// throughput without ever wedging the clock.
func RetryBackoff(attempt int) Duration {
	return Duration(10_000) << min(attempt, 6)
}

// Reserve schedules a transfer of n bytes not earlier than at, returning the
// interval [start, end) it occupies. A zero-byte transfer returns an empty
// interval at the requested time without occupying the link. Under fault
// injection, Reserve retries a transiently failing transfer internally
// after RetryBackoff — callers that cannot express a retry policy (the
// baseline executors) observe only slowdown, never failure. The migration
// engine's hot paths use ReserveChecked and count their own retries.
func (l *Link) Reserve(at Time, n int64, dir Direction) (start, end Time) {
	for attempt := 0; ; attempt++ {
		s, e, ok := l.ReserveChecked(at, n, dir)
		if ok || attempt >= MaxTransferRetries {
			return s, e
		}
		at = e.Add(RetryBackoff(attempt))
	}
}

// ReserveChecked is Reserve exposed to the fault injector: ok is false when
// the transfer transiently failed. The failed attempt occupies the returned
// interval anyway; the caller retries (with its own backoff) or gives up.
func (l *Link) ReserveChecked(at Time, n int64, dir Direction) (start, end Time, ok bool) {
	if n <= 0 {
		return at, at, true
	}
	start = Max(at, l.busyUnt)
	d := l.params.TransferTime(n)
	fail := false
	if l.perturb != nil {
		d, fail = l.perturb.PerturbTransfer(start, n, dir, d)
	}
	end = start.Add(d)
	l.busyUnt = end
	switch dir {
	case HostToDevice:
		l.bytesH2D += n
		l.nH2D++
	case DeviceToHost:
		l.bytesD2H += n
		l.nD2H++
	}
	if l.timeline != nil {
		l.timeline.Add(start, end)
	}
	if l.observe != nil {
		l.observe(start, end, n, dir, fail)
	}
	return start, end, !fail
}

// IdleUntil reports whether the link is free for the whole interval ending at
// deadline, i.e. whether a background transfer starting now would not push
// past it. It is used by the pre-evictor to stay off the critical path.
func (l *Link) IdleUntil(now Time, n int64, deadline Time) bool {
	start := Max(now, l.busyUnt)
	return start.Add(l.params.TransferTime(n)) <= deadline
}

// Traffic returns cumulative transferred bytes per direction.
func (l *Link) Traffic() (h2d, d2h int64) { return l.bytesH2D, l.bytesD2H }

// Transfers returns cumulative transfer counts per direction.
func (l *Link) Transfers() (h2d, d2h int64) { return l.nH2D, l.nD2H }

// Reset clears reservations and counters, keeping the parameter set.
func (l *Link) Reset() {
	l.busyUnt = 0
	l.bytesH2D, l.bytesD2H = 0, 0
	l.nH2D, l.nD2H = 0, 0
	if l.timeline != nil {
		l.timeline.Reset()
	}
}

// Duplex models the PCIe interconnect as two independent serialized lanes,
// one per direction — PCIe is full duplex, so evictions (D2H) overlap with
// migrations and prefetches (H2D). Both lanes feed one shared timeline so
// the energy meter sees link-active time without double counting overlap.
type Duplex struct {
	h2d, d2h *Link
	tl       *Timeline
}

// NewDuplex returns an idle duplex link; tl may be nil.
func NewDuplex(p Params, tl *Timeline) *Duplex {
	return &Duplex{h2d: NewLink(p, tl), d2h: NewLink(p, tl), tl: tl}
}

// SetPerturber installs a fault injector on both lanes; nil removes it.
func (d *Duplex) SetPerturber(p TransferPerturber) {
	d.h2d.SetPerturber(p)
	d.d2h.SetPerturber(p)
}

// SetObserver installs a transfer observer on both lanes; nil removes it.
func (d *Duplex) SetObserver(o TransferObserver) {
	d.h2d.SetObserver(o)
	d.d2h.SetObserver(o)
}

// Reserve schedules a transfer on the lane of dir.
func (d *Duplex) Reserve(at Time, n int64, dir Direction) (start, end Time) {
	start, end = d.lane(dir).Reserve(at, n, dir)
	d.sealTimeline()
	return start, end
}

// ReserveChecked schedules a transfer on the lane of dir, surfacing
// injected transient failures to the caller.
func (d *Duplex) ReserveChecked(at Time, n int64, dir Direction) (start, end Time, ok bool) {
	start, end, ok = d.lane(dir).ReserveChecked(at, n, dir)
	d.sealTimeline()
	return start, end, ok
}

// sealTimeline folds the timeline's intervals that no later reservation
// can touch. A lane's reservation starts at or after its BusyUntil, and
// BusyUntil never decreases (each reservation ends at or after its start,
// transfer times and perturbed occupancies being non-negative), so no
// later interval on either lane starts before the earlier of the two.
func (d *Duplex) sealTimeline() {
	if d.tl != nil {
		d.tl.seal(min(d.h2d.busyUnt, d.d2h.busyUnt))
	}
}

// BusyUntil reports when the lane of dir drains.
func (d *Duplex) BusyUntil(dir Direction) Time { return d.lane(dir).BusyUntil() }

// Traffic returns cumulative bytes per direction across both lanes.
func (d *Duplex) Traffic() (h2d, d2h int64) {
	a, _ := d.h2d.Traffic()
	_, b := d.d2h.Traffic()
	return a, b
}

// Transfers returns cumulative transfer counts per direction.
func (d *Duplex) Transfers() (h2d, d2h int64) {
	a, _ := d.h2d.Transfers()
	_, b := d.d2h.Transfers()
	return a, b
}

// Reset clears both lanes.
func (d *Duplex) Reset() {
	d.h2d.Reset()
	d.d2h.Reset()
}

func (d *Duplex) lane(dir Direction) *Link {
	if dir == HostToDevice {
		return d.h2d
	}
	return d.d2h
}
