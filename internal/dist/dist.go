// Package dist owns the definition of a training job and runs it across
// processes. JobSpec is the one serializable description of a run: its
// defaults, its validation, its dedupe key and the core.Config and
// strategy built from it. fdarun, fdaserve, fdagate and the distributed
// workers all start from it. The package also runs the worker side of
// `fdarun -worker -connect` and the coordinator side of `fdaserve`'s
// distributed train jobs and `fdarun -coordinator`.
//
// The execution model is replicated SPMD (DESIGN.md §9): the
// coordinator sends the same JobSpec to every worker; each worker
// deterministically derives the full cluster layout (datasets, shards,
// initial model, per-rank RNG streams) from it and steps only its
// assigned rank, meeting the others exclusively through fabric
// collectives. Because reductions are computed from rank-ordered
// contributions with the in-process kernels, every process finishes
// with bit-identical training state and an identical Result — which the
// coordinator verifies before reporting.
package dist

import (
	"errors"
	"fmt"

	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/models"
)

// JobSpec is the serializable description of one training run: the
// fdarun flag surface, the POST /v1/train body, and the payload the
// coordinator hands every worker at rank assignment. Every field is
// deterministic input, so two processes holding equal specs build
// bit-identical cluster state.
type JobSpec struct {
	// Model is a zoo model name (lenet5s, vgg16s, ...). Required.
	Model string `json:"model"`
	// Strategy is the synchronization policy name. Required.
	Strategy string `json:"strategy"`
	// Theta is the FDA variance threshold; 0 selects the model's default
	// grid entry.
	Theta float64 `json:"theta,omitempty"`
	// Tau is the round length for the schedule-based baselines.
	Tau int `json:"tau,omitempty"`
	// K, Batch, Steps, EvalEvery, Target, Het, Seed mirror core.Config.
	K         int     `json:"k"`
	Batch     int     `json:"batch"`
	Steps     int     `json:"steps"`
	EvalEvery int     `json:"eval_every,omitempty"`
	Target    float64 `json:"target,omitempty"`
	Het       string  `json:"het,omitempty"`
	Seed      uint64  `json:"seed"`
	// TopK/QBits compose sync compression exactly as the fdarun flags.
	// They are outside Key: fdaserve refuses them.
	TopK  float64 `json:"topk,omitempty"`
	QBits int     `json:"qbits,omitempty"`
	// Distributed asks fdaserve to coordinate the run across worker
	// processes on its TCP fabric instead of training in-process.
	Distributed bool `json:"distributed,omitempty"`
}

// WithDefaults fills the documented zero-value defaults. Two specs that
// differ only in spelled-out defaults are the same job.
func (s JobSpec) WithDefaults() JobSpec {
	if s.Theta == 0 {
		if spec, err := models.ByName(s.Model); err == nil && len(spec.ThetaGrid) > 1 {
			s.Theta = spec.ThetaGrid[1]
		}
	}
	if s.Tau == 0 {
		s.Tau = 10
	}
	if s.K == 0 {
		s.K = 5
	}
	if s.Batch == 0 {
		s.Batch = 32
	}
	if s.Steps == 0 {
		s.Steps = 200
	}
	if s.EvalEvery == 0 {
		s.EvalEvery = 20
	}
	if s.Het == "" {
		s.Het = "iid"
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	return s
}

// Key returns the canonical dedupe key of the spec: the string fdaserve
// registers the job under, whose SHA-256 is fdagate's affinity address
// and names the job's resume checkpoint. Call WithDefaults first when
// the spec came off the wire.
func (s JobSpec) Key() string {
	key := fmt.Sprintf("train|%s|%s|%g|%d|%d|%d|%d|%d|%g|%s|%d",
		s.Model, s.Strategy, s.Theta, s.Tau, s.K, s.Batch, s.Steps, s.EvalEvery, s.Target, s.Het, s.Seed)
	if s.Distributed {
		// Distributed jobs never share resume checkpoints with local
		// ones, so they dedupe under their own key space.
		key += "|dist"
	}
	return key
}

// Validate checks everything about the spec that can be checked without
// synthesizing its datasets: model and strategy are present and known,
// het parses, and the config is valid apart from its (not yet built)
// Train/Test sets. Config field errors come back as *core.ConfigError.
func (s JobSpec) Validate() error {
	if s.Model == "" || s.Strategy == "" {
		return errors.New("model and strategy are required")
	}
	cfg, _, err := s.config()
	if err != nil {
		return err
	}
	if err := cfg.Validate(); err != nil {
		var cerr *core.ConfigError
		if !errors.As(err, &cerr) {
			return err
		}
		// DatasetFor never yields an empty set for a zoo model, so the
		// Train/Test errors of the data-less config are not real.
		fields := cerr.Fields[:0:0]
		for _, f := range cerr.Fields {
			if f.Field != "Train" && f.Field != "Test" {
				fields = append(fields, f)
			}
		}
		if len(fields) > 0 {
			return &core.ConfigError{Fields: fields}
		}
	}
	// Vet the strategy name on an empty placeholder dataset: the FedOpt
	// variants read Train.Len() for their round length.
	cfg.Train = &data.Dataset{}
	_, err = s.BuildStrategy(cfg)
	return err
}

// BuildConfig materializes the replicated core.Config (datasets
// generated, heterogeneity parsed, codec composed). The caller still
// sets Fabric and Parallelism — the two knobs that are process-local by
// design.
func (s JobSpec) BuildConfig() (core.Config, error) {
	cfg, spec, err := s.config()
	if err != nil {
		return core.Config{}, err
	}
	cfg.Train, cfg.Test = models.DatasetFor(spec, s.Seed)
	return cfg, nil
}

// config builds everything of the core.Config except its datasets.
func (s JobSpec) config() (core.Config, models.Spec, error) {
	spec, err := models.ByName(s.Model)
	if err != nil {
		return core.Config{}, spec, err
	}
	het, err := data.ParseHeterogeneity(s.Het)
	if err != nil {
		return core.Config{}, spec, err
	}
	cfg := core.Config{
		K: s.K, BatchSize: s.Batch, Seed: s.Seed,
		Model: spec.Build, Optimizer: spec.Optimizer,
		Het:            het,
		MaxSteps:       s.Steps,
		EvalEvery:      s.EvalEvery,
		TargetAccuracy: s.Target,
	}
	switch {
	case s.TopK > 0 && s.QBits > 0:
		cfg.SyncCodec = compress.Chain{Stages: []compress.Codec{
			compress.TopK{Fraction: s.TopK}, compress.Quantize{Bits: s.QBits}}}
	case s.TopK > 0:
		cfg.SyncCodec = compress.TopK{Fraction: s.TopK}
	case s.QBits > 0:
		cfg.SyncCodec = compress.Quantize{Bits: s.QBits}
	}
	return cfg, spec, nil
}

// BuildStrategy constructs the named strategy. FedOpt variants bind
// their round length to cfg; PostLocal switches at a quarter of the
// step budget.
func (s JobSpec) BuildStrategy(cfg core.Config) (core.Strategy, error) {
	switch s.Strategy {
	case "LinearFDA":
		return core.NewLinearFDA(s.Theta), nil
	case "SketchFDA":
		return core.NewSketchFDA(s.Theta), nil
	case "OracleFDA":
		return core.NewOracleFDA(s.Theta), nil
	case "Synchronous":
		return core.NewSynchronous(), nil
	case "LocalSGD":
		return core.NewLocalSGD(s.Tau), nil
	case "IncTau":
		return core.NewIncreasingTauLocalSGD(s.Tau, 2), nil
	case "DecTau":
		return core.NewDecreasingTauLocalSGD(s.Tau, 2), nil
	case "PostLocal":
		return core.NewPostLocalSGD(cfg.MaxSteps/4, s.Tau), nil
	case "LAG":
		return core.NewLAG(s.Tau, 0.5), nil
	case "FedAvg":
		return core.NewFedAvgFor(cfg, 1), nil
	case "FedAvgM":
		return core.NewFedAvgMFor(cfg, 1), nil
	case "FedAdam":
		return core.NewFedAdamFor(cfg, 1), nil
	default:
		return nil, fmt.Errorf("dist: unknown strategy %q", s.Strategy)
	}
}
