package rpi

import (
	"fmt"
	"sync"

	"rpeer/internal/alias"
	"rpeer/internal/core"
	"rpeer/internal/geo"
	"rpeer/internal/netsim"
	"rpeer/internal/pingsim"
	"rpeer/internal/registry"
	"rpeer/internal/tracesim"
	"rpeer/internal/traix"
)

// The SDK re-exports the inference data model, so consumers never
// import internal/core directly.
type (
	// Inputs bundles the observable artefacts the engine consumes.
	Inputs = core.Inputs
	// Report is the inference output: one verdict per membership plus
	// the classified multi-IXP routers.
	Report = core.Report
	// Inference is the verdict for one member interface at one IXP.
	Inference = core.Inference
	// Key identifies one membership.
	Key = core.Key
	// PeerClass is the inference outcome (local / remote / unknown).
	PeerClass = core.PeerClass
	// Step identifies which methodology step decided a verdict.
	Step = core.Step
	// RouterClass is the multi-IXP router taxonomy.
	RouterClass = core.RouterClass
	// MultiIXPRouter is one alias-resolved router facing several IXPs.
	MultiIXPRouter = core.MultiIXPRouter
	// Metrics are the validation metrics (Table 3).
	Metrics = core.Metrics
	// Validation is the ground-truth validation dataset.
	Validation = core.Validation
	// ValidationConfig controls validation-set construction.
	ValidationConfig = core.ValidationConfig
	// AliasMode selects the alias-resolution trade-off.
	AliasMode = alias.Mode
	// PingResult is a ping campaign outcome (Inputs.Ping).
	PingResult = pingsim.Result
)

// Verdict classes.
const (
	ClassUnknown = core.ClassUnknown
	ClassLocal   = core.ClassLocal
	ClassRemote  = core.ClassRemote
)

// Methodology steps.
const (
	StepNone         = core.StepNone
	StepPortCapacity = core.StepPortCapacity
	StepRTTColo      = core.StepRTTColo
	StepMultiIXP     = core.StepMultiIXP
	StepPrivate      = core.StepPrivate
	StepBaseline     = core.StepBaseline
)

// Multi-IXP router classes.
const (
	RouterUnclassified = core.RouterUnclassified
	RouterLocal        = core.RouterLocal
	RouterRemote       = core.RouterRemote
	RouterHybrid       = core.RouterHybrid
)

// Alias-resolution modes.
const (
	AliasPrecision = alias.ModePrecision
	AliasCoverage  = alias.ModeCoverage
)

// DefaultBaselineThresholdMs is the Castro et al. remoteness
// threshold (10 ms).
const DefaultBaselineThresholdMs = core.DefaultBaselineThresholdMs

// BuildValidation assembles the ground-truth validation dataset from a
// world (the only ground-truth read in the system).
func BuildValidation(w *netsim.World, cfg ValidationConfig) *Validation {
	return core.BuildValidation(w, cfg)
}

// DefaultValidationConfig mirrors the paper's Table 2 scale.
func DefaultValidationConfig() ValidationConfig {
	return core.DefaultValidationConfig()
}

// Evaluate scores a report against a validation dataset.
func Evaluate(rep *Report, v *Validation) Metrics {
	return core.Evaluate(rep, v)
}

// StepInferences filters a report down to one step's verdicts.
func StepInferences(rep *Report, s Step) *Report {
	return core.StepInferences(rep, s)
}

// SyntheticInputs generates a complete synthetic input world at the
// given scale factor (1 = the paper-sized default world; see
// netsim.ScaledConfig): the seeded world, the merged registry dataset,
// the colocation database, a full ping campaign and a traceroute
// corpus. The independent stages build concurrently; the result is
// deterministic in (seed, scale).
func SyntheticInputs(seed int64, scale int) (Inputs, error) {
	cfg := netsim.DefaultConfig()
	if scale > 1 {
		cfg = netsim.ScaledConfig(scale)
	}
	return syntheticInputs(cfg, seed)
}

// InputsFromConfig builds the full input bundle over an explicit world
// config — the seam in-module tooling (rpi-bot, rpi-serve, rpi-gen)
// uses to run real engine histories over a netsim.TinyConfig world in
// milliseconds instead of the paper-sized default.
func InputsFromConfig(cfg netsim.Config, seed int64) (Inputs, error) {
	return syntheticInputs(cfg, seed)
}

// syntheticInputs builds the full input bundle over any world config —
// the seam the crash-recovery tests use to run real engine histories
// over a netsim.TinyConfig world in milliseconds.
func syntheticInputs(cfg netsim.Config, seed int64) (Inputs, error) {
	cfg.Seed = seed
	w, err := netsim.Generate(cfg)
	if err != nil {
		return Inputs{}, fmt.Errorf("rpi: generate world: %w", err)
	}
	var (
		wg    sync.WaitGroup
		ds    *registry.Dataset
		colo  *registry.ColoDB
		ping  *pingsim.Result
		paths []*traix.Path
	)
	wg.Add(4)
	go func() {
		defer wg.Done()
		ds = registry.Build(w, registry.DefaultNoise(), seed+1)
	}()
	go func() {
		defer wg.Done()
		colo = registry.BuildColo(w, registry.DefaultColoNoise(), seed+2)
	}()
	go func() {
		defer wg.Done()
		vps := pingsim.DeriveVPs(w, seed+3)
		pcfg := pingsim.DefaultCampaign()
		pcfg.Seed = seed + 4
		ping = pingsim.RunParallel(w, vps, pcfg, 0)
	}()
	go func() {
		defer wg.Done()
		tcfg := tracesim.DefaultConfig()
		tcfg.Seed = seed + 5
		paths = tracesim.Generate(w, tcfg)
	}()
	wg.Wait()
	return Inputs{
		World: w, Dataset: ds, Colo: colo, Ping: ping, Paths: paths,
		Speed: geo.DefaultSpeedModel(), Seed: seed + 6,
	}, nil
}
