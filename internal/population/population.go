// Package population models the "personal variables" component of the
// human-in-the-loop framework (§2.3.4): demographics and personal
// characteristics, knowledge and experience, plus the dispositional parts of
// intentions (§2.3.5) and capabilities (§2.3.6) that a receiver brings to a
// security communication before any processing happens.
//
// Populations are described declaratively by a Spec — a named map of trait
// *dimensions*, each a distribution over [0, 1] — and sampled
// deterministically from a caller-supplied *rand.Rand, so every experiment
// is reproducible for a given seed. The core dimensions (the framework's
// own personal variables) live in a fixed registry and compile to array
// indexes, keeping the per-subject hot path allocation-free; extension
// dimensions (MORPHEUS-style human-factor vectors, HVE-style
// per-vulnerability scores) ride along by name without touching the stage
// models that don't read them.
package population

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
)

// DimIndex is a compiled core-dimension index into a Profile's trait
// vector. The constants below form the registry's canonical order, which
// is also the sampling draw order — reordering them changes every seeded
// stream, so new core dimensions must be appended before NumCoreDims.
type DimIndex int

const (
	// DimEducation is general educational attainment.
	DimEducation DimIndex = iota
	// DimTechExpertise is general computing fluency.
	DimTechExpertise
	// DimSecurityKnowledge is security-specific knowledge and experience
	// (§2.3.4 "knowledge and experience").
	DimSecurityKnowledge
	// DimMemoryCapacity is the capability to memorize and retain arbitrary
	// strings (§2.3.6; binding constraint for password policies).
	DimMemoryCapacity
	// DimVisualAcuity covers perceptual capability (small fonts,
	// low-contrast passive indicators); stands in for the framework's
	// disabilities factor.
	DimVisualAcuity
	// DimMotorSkill covers physical capability (clicking small targets,
	// inserting smartcards correctly).
	DimMotorSkill
	// DimRiskPerception is how seriously the person takes security hazards
	// (§2.3.5 attitudes and beliefs).
	DimRiskPerception
	// DimTrustInSecurityUI is baseline belief that security communications
	// are accurate and worth heeding.
	DimTrustInSecurityUI
	// DimSelfEfficacy is belief in one's ability to complete recommended
	// actions successfully.
	DimSelfEfficacy
	// DimPrimaryTaskFocus is how strongly the person privileges the primary
	// task over security interruptions (§2.3.5 motivation: conflicting
	// goals).
	DimPrimaryTaskFocus
	// DimComplianceTendency is dispositional rule-following; drives policy
	// compliance independent of understanding.
	DimComplianceTendency
	// NumCoreDims is the number of registered core dimensions.
	NumCoreDims
)

// Dimension describes one registered core trait dimension: its stable
// name (the key used in dimension maps, specs, and API schemas), its
// compiled index, and what it models.
type Dimension struct {
	Name  string
	Index DimIndex
	Doc   string
}

// coreDims is the registry, in canonical (index/draw) order.
var coreDims = [NumCoreDims]Dimension{
	{"education", DimEducation, "general educational attainment"},
	{"tech-expertise", DimTechExpertise, "general computing fluency"},
	{"security-knowledge", DimSecurityKnowledge, "security-specific knowledge and experience (§2.3.4)"},
	{"memory-capacity", DimMemoryCapacity, "capability to memorize and retain arbitrary strings (§2.3.6)"},
	{"visual-acuity", DimVisualAcuity, "perceptual capability: small fonts, low-contrast passive indicators"},
	{"motor-skill", DimMotorSkill, "physical capability: clicking small targets, inserting smartcards"},
	{"risk-perception", DimRiskPerception, "how seriously the person takes security hazards (§2.3.5)"},
	{"trust-in-security-ui", DimTrustInSecurityUI, "baseline belief that security communications are worth heeding"},
	{"self-efficacy", DimSelfEfficacy, "belief in one's ability to complete recommended actions"},
	{"primary-task-focus", DimPrimaryTaskFocus, "how strongly the primary task outranks security interruptions (§2.3.5)"},
	{"compliance-tendency", DimComplianceTendency, "dispositional rule-following, independent of understanding"},
}

// dimByName is the compiled name→index lookup.
var dimByName = func() map[string]DimIndex {
	m := make(map[string]DimIndex, NumCoreDims)
	for _, d := range coreDims {
		m[d.Name] = d.Index
	}
	return m
}()

// Dimensions returns the core-dimension registry in canonical order. The
// slice is freshly allocated; callers may mutate it.
func Dimensions() []Dimension {
	out := make([]Dimension, NumCoreDims)
	copy(out, coreDims[:])
	return out
}

// DimByName resolves a core dimension name to its compiled index.
func DimByName(name string) (DimIndex, bool) {
	i, ok := dimByName[name]
	return i, ok
}

// DimName returns the registered name of a core dimension index.
func (i DimIndex) Name() string { return coreDims[i].Name }

// Profile is one simulated receiver's static traits: a compiled vector of
// the core dimensions plus any extension-dimension values the spec
// declared. All dimension values are normalized to [0, 1].
type Profile struct {
	// Age in years; affects acuity and familiarity defaults in samplers,
	// but stage models read the normalized traits, not Age directly.
	Age int
	// AccurateMentalModel reports whether the person holds an accurate
	// mental model of the threat class at hand (e.g. understands what
	// phishing is). Inaccurate models drive the misinterpretation failures
	// of §3.1. Training can set this at runtime.
	AccurateMentalModel bool
	// core is the compiled trait vector, indexed by DimIndex. A fixed
	// array (not a map or slice) keeps sampling a profile allocation-free.
	core [NumCoreDims]float64
	// ext holds extension-dimension values, parallel to the spec's sorted
	// extension dimensions; nil for core-only populations.
	ext []float64
}

// Dim reads one core dimension from the compiled vector.
func (p Profile) Dim(i DimIndex) float64 { return p.core[i] }

// SetDim writes one core dimension.
func (p *Profile) SetDim(i DimIndex, v float64) { p.core[i] = v }

// Equal reports whether two profiles carry identical traits. Profiles
// stopped being ==-comparable when extension dimensions arrived (a slice
// field), so determinism tests compare through this instead.
func (p Profile) Equal(q Profile) bool {
	if p.Age != q.Age || p.AccurateMentalModel != q.AccurateMentalModel ||
		p.core != q.core || len(p.ext) != len(q.ext) {
		return false
	}
	for j := range p.ext {
		if p.ext[j] != q.ext[j] {
			return false
		}
	}
	return true
}

// NumExt is the number of extension-dimension values carried.
func (p Profile) NumExt() int { return len(p.ext) }

// Ext reads the j'th extension dimension (ordered as in the spec's sorted
// extension list).
func (p Profile) Ext(j int) float64 { return p.ext[j] }

// Named accessors for the core dimensions. These are the stage models'
// read path: each is a compiled-index read, so they inline to a single
// array load. They take a pointer so a call never copies the profile.

func (p *Profile) Education() float64          { return p.core[DimEducation] }
func (p *Profile) TechExpertise() float64      { return p.core[DimTechExpertise] }
func (p *Profile) SecurityKnowledge() float64  { return p.core[DimSecurityKnowledge] }
func (p *Profile) MemoryCapacity() float64     { return p.core[DimMemoryCapacity] }
func (p *Profile) VisualAcuity() float64       { return p.core[DimVisualAcuity] }
func (p *Profile) MotorSkill() float64         { return p.core[DimMotorSkill] }
func (p *Profile) RiskPerception() float64     { return p.core[DimRiskPerception] }
func (p *Profile) TrustInSecurityUI() float64  { return p.core[DimTrustInSecurityUI] }
func (p *Profile) SelfEfficacy() float64       { return p.core[DimSelfEfficacy] }
func (p *Profile) PrimaryTaskFocus() float64   { return p.core[DimPrimaryTaskFocus] }
func (p *Profile) ComplianceTendency() float64 { return p.core[DimComplianceTendency] }

// NewProfile builds a profile from a dimension map. Core names set the
// compiled vector; unknown names are an error (extension values are
// carried by sampling a Spec with extension dimensions, not built ad
// hoc). Intended for tests and examples, not the sampling hot path.
func NewProfile(age int, accurateModel bool, dims map[string]float64) (Profile, error) {
	p := Profile{Age: age, AccurateMentalModel: accurateModel}
	for name, v := range dims {
		i, ok := dimByName[name]
		if !ok {
			return Profile{}, fmt.Errorf("population: unknown dimension %q (valid: %s)",
				name, strings.Join(coreNames(), ", "))
		}
		p.core[i] = v
	}
	return p, nil
}

func coreNames() []string {
	out := make([]string, NumCoreDims)
	for i, d := range coreDims {
		out[i] = d.Name
	}
	return out
}

// Validate checks all dimension values are within [0, 1] and Age is sane.
func (p Profile) Validate() error {
	if p.Age < 0 || p.Age > 130 {
		return fmt.Errorf("population: age %d out of range", p.Age)
	}
	for i, v := range p.core {
		if v < 0 || v > 1 || math.IsNaN(v) {
			return fmt.Errorf("population: %s = %v out of [0,1]", coreDims[i].Name, v)
		}
	}
	for j, v := range p.ext {
		if v < 0 || v > 1 || math.IsNaN(v) {
			return fmt.Errorf("population: extension dimension %d = %v out of [0,1]", j, v)
		}
	}
	return nil
}

// Expertise is a convenience blend of technical and security knowledge used
// by comprehension models.
func (p *Profile) Expertise() float64 {
	return 0.4*p.core[DimTechExpertise] + 0.6*p.core[DimSecurityKnowledge]
}

// Trait is a distribution over a single normalized trait dimension: a mean
// and spread for a truncated normal on [0, 1].
type Trait struct {
	Mean float64 `json:"mean"`
	SD   float64 `json:"sd"`
}

// sample draws from the trait's truncated normal.
func (t Trait) sample(rng *rand.Rand) float64 {
	return TruncNormal(rng, t.Mean, t.SD)
}

// TruncNormal samples a normal(mean, sd) clamped to [0, 1].
func TruncNormal(rng *rand.Rand, mean, sd float64) float64 {
	v := rng.NormFloat64()*sd + mean
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// ExtDim is one extension dimension of a Spec: a name outside the core
// registry paired with its distribution.
type ExtDim struct {
	Name  string
	Trait Trait
}

// Spec declaratively describes a user population as a dimension map: a
// Trait per core dimension (compiled to a fixed array) plus any number of
// named extension dimensions, along with the expert subpopulation and
// mental-model mix.
type Spec struct {
	// Name labels the population in reports.
	Name string
	// AgeMin and AgeMax bound uniformly-sampled ages.
	AgeMin, AgeMax int
	// core holds the registered dimensions' distributions, indexed by
	// DimIndex; unset dimensions are the zero Trait (constant 0).
	core [NumCoreDims]Trait
	// ext holds extension dimensions sorted by name. They are sampled
	// after every core draw, so adding extension dimensions never
	// perturbs the core draw stream of an existing seed.
	ext []ExtDim
	// ExpertFraction is the fraction of members sampled as security
	// experts: their tech-expertise and security-knowledge are drawn from
	// a high band and they hold accurate mental models.
	ExpertFraction float64
	// AccurateModelBase is the probability a non-expert holds an accurate
	// mental model of the threat, before any training.
	AccurateModelBase float64
}

// New builds a Spec from a dimension map. Names in the core registry set
// the compiled vector; any other name becomes an extension dimension
// (stored sorted, sampled after the core draws).
func New(name string, ageMin, ageMax int, dims map[string]Trait) Spec {
	s := Spec{Name: name, AgeMin: ageMin, AgeMax: ageMax}
	for n, t := range dims {
		s.SetDim(n, t)
	}
	return s
}

// Dim returns the named dimension's distribution, core or extension.
func (s *Spec) Dim(name string) (Trait, bool) {
	if i, ok := dimByName[name]; ok {
		return s.core[i], true
	}
	for _, d := range s.ext {
		if d.Name == name {
			return d.Trait, true
		}
	}
	return Trait{}, false
}

// CoreTrait returns one core dimension's distribution by compiled index.
func (s *Spec) CoreTrait(i DimIndex) Trait { return s.core[i] }

// SetDim sets the named dimension's distribution; names outside the core
// registry create or replace an extension dimension, kept sorted by name.
func (s *Spec) SetDim(name string, t Trait) {
	if i, ok := dimByName[name]; ok {
		s.core[i] = t
		return
	}
	for j := range s.ext {
		if s.ext[j].Name == name {
			s.ext[j].Trait = t
			return
		}
	}
	s.ext = append(s.ext, ExtDim{Name: name, Trait: t})
	sort.Slice(s.ext, func(a, b int) bool { return s.ext[a].Name < s.ext[b].Name })
}

// ExtDims returns a copy of the extension dimensions, sorted by name.
func (s *Spec) ExtDims() []ExtDim {
	return append([]ExtDim(nil), s.ext...)
}

// DimMap snapshots every dimension (core first, in registry order, then
// extensions) as a name→Trait map.
func (s *Spec) DimMap() map[string]Trait {
	m := make(map[string]Trait, int(NumCoreDims)+len(s.ext))
	for i, d := range coreDims {
		m[d.Name] = s.core[i]
	}
	for _, d := range s.ext {
		m[d.Name] = d.Trait
	}
	return m
}

// Clone returns a deep copy (the extension list is the only shared
// storage a plain struct copy would alias).
func (s Spec) Clone() Spec {
	s.ext = append([]ExtDim(nil), s.ext...)
	return s
}

// specJSON is the wire form of a Spec: the dimension map plus the scalar
// knobs. Core and extension dimensions share the one "dims" object — the
// registry decides which is which on decode, so the wire form is stable
// even if a dimension is later promoted into the core registry.
type specJSON struct {
	Name              string           `json:"name"`
	AgeMin            int              `json:"age_min"`
	AgeMax            int              `json:"age_max"`
	Dims              map[string]Trait `json:"dims,omitempty"`
	ExpertFraction    float64          `json:"expert_fraction,omitempty"`
	AccurateModelBase float64          `json:"accurate_model_base,omitempty"`
}

// MarshalJSON renders the spec as its dimension-map wire form.
func (s Spec) MarshalJSON() ([]byte, error) {
	return json.Marshal(specJSON{
		Name:              s.Name,
		AgeMin:            s.AgeMin,
		AgeMax:            s.AgeMax,
		Dims:              s.DimMap(),
		ExpertFraction:    s.ExpertFraction,
		AccurateModelBase: s.AccurateModelBase,
	})
}

// UnmarshalJSON decodes the dimension-map wire form.
func (s *Spec) UnmarshalJSON(b []byte) error {
	var w specJSON
	if err := json.Unmarshal(b, &w); err != nil {
		return err
	}
	out := New(w.Name, w.AgeMin, w.AgeMax, w.Dims)
	out.ExpertFraction = w.ExpertFraction
	out.AccurateModelBase = w.AccurateModelBase
	*s = out
	return nil
}

// Validate checks the spec.
func (s Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("population: spec has empty name")
	}
	if s.AgeMin < 0 || s.AgeMax < s.AgeMin {
		return fmt.Errorf("population: %s: bad age range [%d, %d]", s.Name, s.AgeMin, s.AgeMax)
	}
	if s.ExpertFraction < 0 || s.ExpertFraction > 1 {
		return fmt.Errorf("population: %s: expert fraction %v out of [0,1]", s.Name, s.ExpertFraction)
	}
	if s.AccurateModelBase < 0 || s.AccurateModelBase > 1 {
		return fmt.Errorf("population: %s: accurate-model base %v out of [0,1]", s.Name, s.AccurateModelBase)
	}
	check := func(name string, t Trait) error {
		if t.Mean < 0 || t.Mean > 1 || t.SD < 0 || math.IsNaN(t.Mean) || math.IsNaN(t.SD) {
			return fmt.Errorf("population: %s: dimension %s has invalid distribution %+v", s.Name, name, t)
		}
		return nil
	}
	for i, t := range s.core {
		if err := check(coreDims[i].Name, t); err != nil {
			return err
		}
	}
	for _, d := range s.ext {
		if d.Name == "" {
			return fmt.Errorf("population: %s: extension dimension with empty name", s.Name)
		}
		if _, clash := dimByName[d.Name]; clash {
			return fmt.Errorf("population: %s: extension dimension %s shadows a core dimension", s.Name, d.Name)
		}
		if err := check(d.Name, d.Trait); err != nil {
			return err
		}
	}
	return nil
}

// MeanProfile returns the deterministic "average member" of the population:
// every dimension at its distribution mean, age at the midpoint, and the
// mental model accurate only if most members' would be. The checklist
// analyzer uses it for mean-field reliability estimates.
func (s Spec) MeanProfile() Profile {
	p := Profile{
		Age:                 (s.AgeMin + s.AgeMax) / 2,
		AccurateMentalModel: s.AccurateModelFraction() >= 0.5,
	}
	for i, t := range s.core {
		p.core[i] = t.Mean
	}
	if len(s.ext) > 0 {
		p.ext = make([]float64, len(s.ext))
		for j, d := range s.ext {
			p.ext[j] = d.Trait.Mean
		}
	}
	return p
}

// AccurateModelFraction is the expected fraction of members holding an
// accurate mental model before training.
func (s Spec) AccurateModelFraction() float64 {
	return s.ExpertFraction + s.AccurateModelBase*(1-s.ExpertFraction)
}

// MeanField collapses the population to its degenerate mean-field version:
// every dimension distribution keeps its mean with zero spread, the expert
// subpopulation is dropped, and the mental-model coin is replaced by its
// majority outcome. Sampling the result consumes the exact draw sequence
// Sample always does, but every subject comes out with identical traits
// (only Age still varies, and no stage model reads Age) — which is the
// i.i.d.-Bernoulli shape the analytic engine solves in closed form.
func (s Spec) MeanField() Spec {
	out := s.Clone()
	out.Name = s.Name + "-mean"
	for i := range out.core {
		out.core[i].SD = 0
	}
	for j := range out.ext {
		out.ext[j].Trait.SD = 0
	}
	out.ExpertFraction = 0
	if s.AccurateModelFraction() >= 0.5 {
		out.AccurateModelBase = 1
	} else {
		out.AccurateModelBase = 0
	}
	return out
}

// Sample draws a single profile from the spec. The draw order is part of
// the determinism contract: age, then every core dimension in registry
// order, then the expert coin (and expert redraws), then the mental-model
// coin, then extension dimensions in sorted-name order — so adding
// extension dimensions leaves the core stream of an existing seed intact,
// and core-only specs consume the same stream they always have.
func (s Spec) Sample(rng *rand.Rand) Profile {
	p := Profile{Age: s.AgeMin + rng.Intn(s.AgeMax-s.AgeMin+1)}
	for i := range s.core {
		p.core[i] = s.core[i].sample(rng)
	}
	if rng.Float64() < s.ExpertFraction {
		p.core[DimTechExpertise] = TruncNormal(rng, 0.9, 0.05)
		p.core[DimSecurityKnowledge] = TruncNormal(rng, 0.85, 0.08)
		p.core[DimSelfEfficacy] = TruncNormal(rng, 0.85, 0.08)
		p.AccurateMentalModel = true
	} else {
		p.AccurateMentalModel = rng.Float64() < s.AccurateModelBase
	}
	if len(s.ext) > 0 {
		p.ext = make([]float64, len(s.ext))
		for j, d := range s.ext {
			p.ext[j] = d.Trait.sample(rng)
		}
	}
	return p
}

// SampleN draws n profiles.
func (s Spec) SampleN(rng *rand.Rand, n int) []Profile {
	out := make([]Profile, n)
	for i := range out {
		out[i] = s.Sample(rng)
	}
	return out
}

// GeneralPublic describes a broad consumer population: wide spread of
// knowledge, little security expertise, mostly inaccurate mental models of
// threats like phishing ("many of whom have little or no knowledge about
// phishing", §3.1).
func GeneralPublic() Spec {
	s := New("general-public", 18, 80, map[string]Trait{
		"education":            {Mean: 0.55, SD: 0.2},
		"tech-expertise":       {Mean: 0.45, SD: 0.2},
		"security-knowledge":   {Mean: 0.25, SD: 0.15},
		"memory-capacity":      {Mean: 0.45, SD: 0.15},
		"visual-acuity":        {Mean: 0.8, SD: 0.15},
		"motor-skill":          {Mean: 0.8, SD: 0.12},
		"risk-perception":      {Mean: 0.45, SD: 0.2},
		"trust-in-security-ui": {Mean: 0.6, SD: 0.15},
		"self-efficacy":        {Mean: 0.5, SD: 0.18},
		"primary-task-focus":   {Mean: 0.7, SD: 0.15},
		"compliance-tendency":  {Mean: 0.55, SD: 0.18},
	})
	s.ExpertFraction = 0.03
	s.AccurateModelBase = 0.25
	return s
}

// Enterprise describes an organizational workforce: moderately trained,
// under strong primary-task pressure, with some compliance culture (§3.2:
// "complete novice through security expert", depending on organization).
func Enterprise() Spec {
	s := GeneralPublic()
	s.Name = "enterprise"
	s.AgeMin, s.AgeMax = 22, 65
	s.SetDim("education", Trait{Mean: 0.7, SD: 0.15})
	s.SetDim("tech-expertise", Trait{Mean: 0.55, SD: 0.18})
	s.SetDim("security-knowledge", Trait{Mean: 0.4, SD: 0.18})
	s.SetDim("primary-task-focus", Trait{Mean: 0.8, SD: 0.1})
	s.SetDim("compliance-tendency", Trait{Mean: 0.65, SD: 0.15})
	s.ExpertFraction = 0.08
	s.AccurateModelBase = 0.4
	return s
}

// Experts describes a security-savvy population, useful as a contrast
// condition (§2.3.4: experts comprehend more but second-guess warnings).
func Experts() Spec {
	s := GeneralPublic()
	s.Name = "experts"
	s.SetDim("tech-expertise", Trait{Mean: 0.9, SD: 0.05})
	s.SetDim("security-knowledge", Trait{Mean: 0.85, SD: 0.08})
	s.SetDim("risk-perception", Trait{Mean: 0.7, SD: 0.12})
	s.SetDim("self-efficacy", Trait{Mean: 0.85, SD: 0.08})
	s.SetDim("trust-in-security-ui", Trait{Mean: 0.5, SD: 0.15}) // experts second-guess
	s.ExpertFraction = 1
	s.AccurateModelBase = 1
	return s
}

// Novices describes users with minimal computing background.
func Novices() Spec {
	s := GeneralPublic()
	s.Name = "novices"
	s.SetDim("tech-expertise", Trait{Mean: 0.2, SD: 0.1})
	s.SetDim("security-knowledge", Trait{Mean: 0.1, SD: 0.08})
	s.SetDim("self-efficacy", Trait{Mean: 0.35, SD: 0.15})
	s.ExpertFraction = 0
	s.AccurateModelBase = 0.08
	return s
}

// Presets returns the built-in population presets keyed by name. The map
// is freshly allocated; callers may mutate it.
func Presets() map[string]Spec {
	list := []Spec{GeneralPublic(), Enterprise(), Experts(), Novices(), GeneralPublic().MeanField()}
	m := make(map[string]Spec, len(list))
	for _, s := range list {
		m[s.Name] = s
	}
	return m
}

// Names returns the preset names, sorted.
func Names() []string {
	m := Presets()
	out := make([]string, 0, len(m))
	for name := range m {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// ByName returns the named preset. Unknown names fail fast with an error
// that lists every valid name — never a silent default.
func ByName(name string) (Spec, error) {
	if s, ok := Presets()[name]; ok {
		return s, nil
	}
	return Spec{}, fmt.Errorf("population: unknown preset %q (valid: %s)",
		name, strings.Join(Names(), ", "))
}
