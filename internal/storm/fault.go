package storm

import (
	"fmt"
	"time"
)

// This file is the fault-injection half of the runtime's fault
// tolerance subsystem (recovery.go is the other half). A FaultPlan
// describes deterministic failures — executor crashes at the Nth
// event, serializer corruption on a chosen edge, artificially slow
// executors — that the runtime injects while a topology runs. The
// plan replaces ad-hoc panicking test bolts: chaos tests declare
// where the topology must fail and the recovery machinery must bring
// it back, without touching the component code under test.
//
// All injected-fault state is resolved per executor before the
// executors start and is touched only by that executor's goroutine,
// so fault injection adds no synchronization and the whole subsystem
// stays race-clean.

// FaultKind classifies an injected fault.
type FaultKind int

const (
	// CrashFault panics the target executor when its event counter
	// reaches AtEvent (bolts count received events, spouts produced
	// events; end-of-stream notices don't count).
	CrashFault FaultKind = iota
	// SlowFault delays the target executor by Delay on every event,
	// modelling a straggler.
	SlowFault
	// CorruptFault fails the AtEvent-th send by the target executor on
	// the edge to component To, modelling a poisoned wire encoding. The
	// producing executor crashes (and, if recoverable, restarts) exactly
	// as a real serializer error would make it.
	CorruptFault
)

// Fault is one declared failure. Component and Instance select the
// target executor; the remaining fields depend on Kind.
type Fault struct {
	Kind      FaultKind
	Component string
	Instance  int
	// AtEvent is the 1-based event count at which a crash or
	// corruption triggers.
	AtEvent int64
	// Times is how many consecutive events trigger a CrashFault once
	// AtEvent is reached (default 1). A recovered executor resumes at
	// its live event counter, so Times > 1 exercises repeated
	// crash/recover cycles.
	Times int
	// Delay is the per-event delay of a SlowFault.
	Delay time.Duration
	// To is the consumer component of a CorruptFault's edge.
	To string
}

// FaultPlan is a deterministic failure schedule for one topology run.
// Build it with the fluent methods and install it with
// Topology.SetFaultPlan before Run.
type FaultPlan struct {
	faults []Fault
}

// NewFaultPlan creates an empty plan.
func NewFaultPlan() *FaultPlan { return &FaultPlan{} }

// CrashAt schedules executor component[instance] to panic upon its
// atEvent-th event (1-based).
func (p *FaultPlan) CrashAt(component string, instance int, atEvent int64) *FaultPlan {
	return p.Add(Fault{Kind: CrashFault, Component: component, Instance: instance, AtEvent: atEvent, Times: 1})
}

// CrashTimes is CrashAt firing on `times` consecutive events, for
// repeated crash/recover cycles of one executor.
func (p *FaultPlan) CrashTimes(component string, instance int, atEvent int64, times int) *FaultPlan {
	return p.Add(Fault{Kind: CrashFault, Component: component, Instance: instance, AtEvent: atEvent, Times: max(times, 1)})
}

// SlowExecutor makes executor component[instance] sleep perEvent
// before processing each event.
func (p *FaultPlan) SlowExecutor(component string, instance int, perEvent time.Duration) *FaultPlan {
	return p.Add(Fault{Kind: SlowFault, Component: component, Instance: instance, Delay: perEvent})
}

// CorruptEdge fails the atSend-th send (1-based) from executor
// from[fromInstance] to component to. Sends are counted per routed row
// (and marker copy), not per batch or message, so the fault keeps
// per-event granularity under the batched transport; it fires when an
// emission is staged (emitter.stage), before any row of it reaches a
// buffer, so a corrupted emission is never partially delivered.
func (p *FaultPlan) CorruptEdge(from string, fromInstance int, to string, atSend int64) *FaultPlan {
	return p.Add(Fault{Kind: CorruptFault, Component: from, Instance: fromInstance, To: to, AtEvent: atSend, Times: 1})
}

// Add appends an explicitly constructed fault.
func (p *FaultPlan) Add(f Fault) *FaultPlan {
	p.faults = append(p.faults, f)
	return p
}

// validate checks the plan against a topology's components.
func (p *FaultPlan) validate(t *Topology) error {
	for _, f := range p.faults {
		c, ok := t.components[f.Component]
		if !ok {
			return fmt.Errorf("storm: fault plan targets unknown component %q", f.Component)
		}
		if f.Instance < 0 || f.Instance >= c.parallelism {
			return fmt.Errorf("storm: fault plan targets %s[%d], parallelism is %d", f.Component, f.Instance, c.parallelism)
		}
		if f.Kind == CorruptFault {
			if _, ok := t.components[f.To]; !ok {
				return fmt.Errorf("storm: fault plan corrupts edge to unknown component %q", f.To)
			}
		}
	}
	return nil
}

// trigger is the live countdown of one crash or corruption fault: it
// fires left more times once the count reaches at. A corruption counts
// its edge's sends in count; crashes count the executor's events.
type trigger struct {
	at, count int64
	left      int
}

// executorFaults is the fault state of a single executor. It is built
// once in Run and then owned by the executor's goroutine.
type executorFaults struct {
	events  int64
	delay   time.Duration
	crashes []*trigger
	// corrupt maps consumer component name → corruption schedule.
	corrupt map[string][]*trigger
}

// injectedFault marks panics raised by fault injection, so errors can
// be told apart from genuine component bugs in tests and logs.
type injectedFault struct{ msg string }

func (f injectedFault) Error() string { return f.msg }

// faultsFor resolves the plan to one executor's local fault state,
// returning nil when no fault targets it.
func (p *FaultPlan) faultsFor(component string, instance int) *executorFaults {
	if p == nil {
		return nil
	}
	var ef *executorFaults
	for _, f := range p.faults {
		if f.Component != component || f.Instance != instance {
			continue
		}
		if ef == nil {
			ef = &executorFaults{}
		}
		switch t := (&trigger{at: f.AtEvent, left: f.Times}); f.Kind {
		case CrashFault:
			ef.crashes = append(ef.crashes, t)
		case SlowFault:
			ef.delay += f.Delay
		case CorruptFault:
			if ef.corrupt == nil {
				ef.corrupt = map[string][]*trigger{}
			}
			ef.corrupt[f.To] = append(ef.corrupt[f.To], t)
		}
	}
	return ef
}

// onEvent advances the executor's event counter, applies slow-executor
// delays, and panics if a crash fault triggers. Replayed events do not
// pass through onEvent, so a one-shot crash cannot re-fire during the
// recovery that it caused.
func (ef *executorFaults) onEvent(component string, instance int) {
	if ef == nil {
		return
	}
	ef.events++
	if ef.delay > 0 {
		time.Sleep(ef.delay)
	}
	for _, c := range ef.crashes {
		if ef.events >= c.at && c.left > 0 {
			c.left--
			panic(injectedFault{fmt.Sprintf("injected crash of %s[%d] at event %d", component, instance, ef.events)})
		}
	}
}

// onSend counts one send toward consumer `to` and panics if a
// corruption fault triggers on that edge.
func (ef *executorFaults) onSend(component string, instance int, to string) {
	if ef == nil || ef.corrupt == nil {
		return
	}
	for _, c := range ef.corrupt[to] {
		c.count++
		if c.count >= c.at && c.left > 0 {
			c.left--
			panic(injectedFault{fmt.Sprintf("injected serializer corruption on edge %s[%d]→%s at send %d", component, instance, to, c.count)})
		}
	}
}

// Degradation selects what the runtime does when an executor fails
// and cannot be recovered (no snapshot support, restart budget
// exhausted, or restore itself failed).
type Degradation int

const (
	// AbortTopology records the failure and lets the topology drain;
	// Run returns an error (the pre-recovery behavior).
	AbortTopology Degradation = iota
	// DropAndLog keeps the topology alive: the failed executor drops
	// its remaining items (counted in Stats as Dropped), keeps
	// forwarding deduplicated markers so downstream alignment
	// progresses, and Run completes without error.
	DropAndLog
)

// String renders the degradation mode.
func (d Degradation) String() string {
	if d == DropAndLog {
		return "drop-and-log"
	}
	return "abort"
}

// RecoveryPolicy configures marker-cut checkpointing and restart for
// a topology run. The zero value disables recovery (seed behavior:
// any executor failure is fatal to the run).
type RecoveryPolicy struct {
	// Enabled turns on checkpointing and crash recovery for every
	// aligned bolt executor whose bolt implements Recoverable (and for
	// sinks, which the runtime checkpoints natively).
	Enabled bool
	// MaxRestarts bounds recoveries per executor (0 = default 5).
	// Beyond the budget the executor degrades per OnUnrecoverable, so
	// a deterministic bug cannot restart-loop forever.
	MaxRestarts int
	// OnUnrecoverable selects the degradation mode for executors that
	// fail and cannot be brought back.
	OnUnrecoverable Degradation
	// Logf, when set, receives one line per restart/degradation (e.g.
	// log.Printf). nil discards the log; the counters in Stats record
	// the events either way. Not serialised.
	Logf func(format string, args ...any) `json:"-"`
}

func (p RecoveryPolicy) maxRestarts() int { return positiveOr(p.MaxRestarts, 5) }

// positiveOr returns v, or def when v is not positive (an unset knob).
func positiveOr[T int | int64 | time.Duration](v, def T) T {
	if v > 0 {
		return v
	}
	return def
}

func (p RecoveryPolicy) logf(format string, args ...any) {
	if p.Logf != nil {
		p.Logf(format, args...)
	}
}
