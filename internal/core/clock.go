package core

import "time"

// stageNow is the engine's only wall-clock read. Stage timings feed
// Result.Durations — observability surfaced in /metricsz and simbench —
// and never influence scores, sampling, or control flow, so they are
// compatible with the fixed-seed determinism contract.
// Confining the read here keeps detmerge's no-wall-clock rule meaningful
// for the rest of the package: any other time.Now is a real violation.
func stageNow() time.Time {
	return time.Now() //lint:allow detmerge stage-duration observability only; the value never reaches scores or control flow
}

// sysClock is the default Clock: the process wall clock through
// stageNow, this package's single annotated time.Now read.
type sysClock struct{}

func (sysClock) Now() time.Time { return stageNow() }

// clock resolves the effective Clock (Options.Clock, defaulting to the
// system clock).
func (o Options) clock() Clock {
	if o.Clock != nil {
		return o.Clock
	}
	return sysClock{}
}
