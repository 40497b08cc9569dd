package workload

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"
)

// TestSpecJSONRoundTrip checks the builtin specs survive WriteSpec/ParseSpec
// unchanged.
func TestSpecJSONRoundTrip(t *testing.T) {
	for _, name := range BuiltinSpecNames() {
		spec, ok := BuiltinSpec(name)
		if !ok {
			t.Fatalf("builtin %q missing", name)
		}
		var buf bytes.Buffer
		if err := WriteSpec(&buf, spec); err != nil {
			t.Fatal(err)
		}
		back, err := ParseSpec(&buf)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		a, _ := json.Marshal(spec)
		b, _ := json.Marshal(back)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: spec changed across JSON round trip:\n%s\n%s", name, a, b)
		}
	}
}

// TestSpecValidate exercises the validator's rejection paths.
func TestSpecValidate(t *testing.T) {
	base := func() Spec {
		s, _ := BuiltinSpec("flash-crash")
		return s
	}
	cases := []struct {
		name string
		mut  func(*Spec)
		want string
	}{
		{"no name", func(s *Spec) { s.Name = "" }, "needs a name"},
		{"no cohorts", func(s *Spec) { s.Cohorts = nil }, "at least one cohort"},
		{"bad weight", func(s *Spec) { s.Cohorts[0].Weight = -1 }, "weight"},
		{"bad shape", func(s *Spec) { s.Cohorts[0].Arrival.Shape = -2 }, "shape"},
		{"bad tasks", func(s *Spec) { s.Cohorts[0].Tasks = [2]int{0, 3} }, "tasks range"},
		{"bad util", func(s *Spec) { s.Cohorts[0].Util = [2]float64{0.5, 0.2} }, "util range"},
		{"bad period", func(s *Spec) { s.Cohorts[0].Period = [2]Duration{0, 0} }, "period range"},
		{"bad window tile", func(s *Spec) { s.Windows[1].Start = 0.5 }, "tile"},
		{"bad window rate", func(s *Spec) { s.Windows[0].Rate = 0 }, "rate"},
		{"short windows", func(s *Spec) { s.Windows = s.Windows[:2] }, "tile [0, 1]"},
		{"bad symbols", func(s *Spec) { s.Symbols = -4 }, "symbols"},
		{"long name", func(s *Spec) { s.Name = strings.Repeat("n", maxSectionName+1) }, "spec name is"},
		{"long window name", func(s *Spec) { s.Windows[1].Name = strings.Repeat("w", maxSectionName+1) }, "window 1 name is"},
	}
	for _, c := range cases {
		s := base()
		c.mut(&s)
		err := s.Validate()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want error containing %q", c.name, err, c.want)
		}
	}
	if err := base().Validate(); err != nil {
		t.Fatalf("flash-crash builtin invalid: %v", err)
	}
}

// TestBuiltinSourceParams pins the Builtin source to the population the
// cluster layer shipped with (the byte-identity contract of the default path
// rides on these draws): a client is a pure function of (seed, id), whatever
// the population size, and its tasks' periods stay in its class's range.
func TestBuiltinSourceParams(t *testing.T) {
	src := NewBuiltin(42, 100)
	counts := [NumClasses]int{}
	for id := 0; id < 100; id++ {
		p := src.Params(id)
		if p.ID != id {
			t.Fatalf("client %d: id %d", id, p.ID)
		}
		if q := NewBuiltin(42, id+1).Params(id); q != p {
			t.Fatalf("client %d: %+v in a population of %d, %+v in one of 100", id, q, id+1, p)
		}
		counts[p.Class]++
		lo, hi := ClassUtilRange(p.Class)
		if p.Util < lo || p.Util >= hi {
			t.Errorf("client %d: util %v outside [%v, %v)", id, p.Util, lo, hi)
		}
		plo, phi := ClassPeriodRange(p.Class)
		if p.PeriodMin != plo || p.PeriodMax != phi {
			t.Errorf("client %d: period range [%v, %v]", id, p.PeriodMin, p.PeriodMax)
		}
		if p.NTasks < 1 || p.NTasks > 3 {
			t.Errorf("client %d: %d tasks", id, p.NTasks)
		}
		if p.Arrival != 0 || p.Lifetime != 0 || p.Parallel != 0 {
			t.Errorf("client %d: builtin clients are always-on, got %+v", id, p)
		}
		c, err := Materialize(p)
		if err != nil {
			t.Fatal(err)
		}
		if c.Set.Len() != p.NTasks {
			t.Errorf("client %d: %d tasks materialized, want %d", id, c.Set.Len(), p.NTasks)
		}
		if !strings.HasPrefix(c.Set.Tasks[0].Name, "c") {
			t.Errorf("client %d: task name %q", id, c.Set.Tasks[0].Name)
		}
		for _, tk := range c.Set.Tasks {
			if tk.Period < plo || tk.Period > phi {
				t.Errorf("client %d (%v): period %v outside [%v, %v]", id, p.Class, tk.Period, plo, phi)
			}
		}
	}
	for class, n := range counts {
		if n == 0 {
			t.Errorf("class %v never drawn in 100 clients", Class(class))
		}
	}
}

// TestMaterializePure checks Materialize is a pure function of the params:
// the property replay identity rides on.
func TestMaterializePure(t *testing.T) {
	spec, _ := BuiltinSpec("flash-crash")
	src, err := Compile(spec, CompileConfig{Clients: 50, Seed: 9, Horizon: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	for id := 0; id < src.Len(); id++ {
		p := src.Params(id)
		a, err := Materialize(p)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Materialize(p)
		if err != nil {
			t.Fatal(err)
		}
		if a.Set.Len() != b.Set.Len() {
			t.Fatalf("client %d: set size differs across identical params", id)
		}
		for i := range a.Set.Tasks {
			if !reflect.DeepEqual(a.Set.Tasks[i], b.Set.Tasks[i]) {
				t.Fatalf("client %d task %d differs across identical params", id, i)
			}
		}
	}
}

// TestCompileDeterministic checks compilation is a pure function of
// (spec, seed, clients, horizon) and that seeds decorrelate populations.
func TestCompileDeterministic(t *testing.T) {
	spec, _ := BuiltinSpec("open-close")
	cfg := CompileConfig{Clients: 300, Seed: 7, Horizon: 2 * time.Second}
	a, err := Compile(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Compile(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for id := 0; id < cfg.Clients; id++ {
		if a.Params(id) != b.Params(id) {
			t.Fatalf("client %d differs across identical compiles", id)
		}
	}
	cfg.Seed = 8
	c, err := Compile(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	same := 0
	for id := 0; id < cfg.Clients; id++ {
		if a.Params(id) == c.Params(id) {
			same++
		}
	}
	if same == cfg.Clients {
		t.Fatal("different seeds produced identical populations")
	}
}

// TestArrivalsFollowWindows checks the rate warping: windows receive client
// arrivals in proportion to rate x span, and arrivals are nondecreasing per
// cohort fold yet always inside the horizon.
func TestArrivalsFollowWindows(t *testing.T) {
	spec, _ := BuiltinSpec("flash-crash")
	horizon := time.Second
	src, err := Compile(spec, CompileConfig{Clients: 4000, Seed: 3, Horizon: horizon})
	if err != nil {
		t.Fatal(err)
	}
	wins := src.Windows()
	counts := make([]float64, len(wins))
	for id := 0; id < src.Len(); id++ {
		at := src.Params(id).Arrival
		if at < 0 || at > horizon {
			t.Fatalf("client %d arrives at %v, outside [0, %v]", id, at, horizon)
		}
		for i := len(wins) - 1; i >= 0; i-- {
			if at >= wins[i].Start {
				counts[i]++
				break
			}
		}
	}
	mass := 0.0
	for _, w := range wins {
		mass += w.Rate * float64(w.End-w.Start)
	}
	for i, w := range wins {
		want := w.Rate * float64(w.End-w.Start) / mass * float64(src.Len())
		if got := counts[i]; math.Abs(got-want) > 0.15*want+10 {
			t.Errorf("window %q: %v arrivals, want about %.0f", w.Name, got, want)
		}
	}
}

// distMoments draws n samples and returns the empirical mean and CV.
func distMoments(t *testing.T, d Dist, n int) (mean, cv float64) {
	t.Helper()
	s := NewStream(1234, 99)
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		x := s.Gap(d)
		if x < 0 || math.IsNaN(x) || math.IsInf(x, 0) {
			t.Fatalf("%v sample %d: %v", d, i, x)
		}
		sum += x
		sumSq += x * x
	}
	mean = sum / float64(n)
	variance := sumSq/float64(n) - mean*mean
	return mean, math.Sqrt(math.Max(variance, 0)) / mean
}

// TestDistributionMoments pins each inter-arrival process to its analytical
// mean (1 by construction) and coefficient of variation: CV 1 for Poisson,
// 1/sqrt(k) for Gamma(k), sqrt(Gamma(1+2/k)/Gamma(1+1/k)^2 - 1) for
// Weibull(k). Tolerances absorb the Irwin-Hall normal approximation inside
// the Gamma sampler and plain sampling error.
func TestDistributionMoments(t *testing.T) {
	const n = 200000
	weibullCV := func(k float64) float64 {
		g1 := math.Gamma(1 + 1/k)
		g2 := math.Gamma(1 + 2/k)
		return math.Sqrt(g2/(g1*g1) - 1)
	}
	cases := []struct {
		d      Dist
		wantCV float64
		tol    float64
	}{
		{Dist{Process: ProcPoisson}, 1, 0.02},
		{Dist{Process: ProcGamma, Shape: 0.5}, 1 / math.Sqrt(0.5), 0.05},
		{Dist{Process: ProcGamma, Shape: 4}, 0.5, 0.05},
		{Dist{Process: ProcWeibull, Shape: 0.6}, weibullCV(0.6), 0.05},
		{Dist{Process: ProcWeibull, Shape: 2}, weibullCV(2), 0.02},
	}
	for _, c := range cases {
		mean, cv := distMoments(t, c.d, n)
		if math.Abs(mean-1) > 0.03 {
			t.Errorf("%v %v: mean %.4f, want 1", c.d.Process, c.d.Shape, mean)
		}
		if math.Abs(cv-c.wantCV) > c.tol*c.wantCV+0.01 {
			t.Errorf("%v %v: CV %.4f, want %.4f", c.d.Process, c.d.Shape, cv, c.wantCV)
		}
	}
}

// TestRateProfileInverse checks profile.at is the inverse of the mass CDF:
// monotone, hits window boundaries at the cumulative mass fractions, and
// clamps at the ends.
func TestRateProfileInverse(t *testing.T) {
	windows := []Window{
		{Name: "a", Start: 0, End: 0.5, Rate: 1},
		{Name: "b", Start: 0.5, End: 0.75, Rate: 8},
		{Name: "c", Start: 0.75, End: 1, Rate: 1},
	}
	horizon := time.Second
	p := newRateProfile(windows, horizon)
	// Total mass: 0.5 + 2.0 + 0.25 = 2.75.
	if got := p.at(0); got != 0 {
		t.Errorf("at(0) = %v", got)
	}
	if got := p.at(1); got != horizon {
		t.Errorf("at(1) = %v", got)
	}
	if got, want := p.at(0.5/2.75), 500*time.Millisecond; durApart(got, want) > time.Millisecond {
		t.Errorf("at(boundary a/b) = %v, want %v", got, want)
	}
	if got, want := p.at(2.5/2.75), 750*time.Millisecond; durApart(got, want) > time.Millisecond {
		t.Errorf("at(boundary b/c) = %v, want %v", got, want)
	}
	prev := time.Duration(-1)
	for i := 0; i <= 1000; i++ {
		at := p.at(float64(i) / 1000)
		if at < prev {
			t.Fatalf("at not monotone at step %d: %v < %v", i, at, prev)
		}
		prev = at
	}
	if r := p.rateAt(600 * time.Millisecond); r != 8 {
		t.Errorf("rateAt(600ms) = %v, want 8", r)
	}
	if r := p.rateAt(100 * time.Millisecond); r != 1 {
		t.Errorf("rateAt(100ms) = %v, want 1", r)
	}
}

func durApart(a, b time.Duration) time.Duration {
	if a > b {
		return a - b
	}
	return b - a
}

// FuzzWorkloadSpec: ParseSpec must never panic on arbitrary input, and a
// spec it accepts must compile for a 16-client population with every
// arrival inside the horizon, then record to .rtk bytes that decode back to
// the same trace.
func FuzzWorkloadSpec(f *testing.F) {
	for _, name := range BuiltinSpecNames() {
		spec, _ := BuiltinSpec(name)
		var buf bytes.Buffer
		if err := WriteSpec(&buf, spec); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte(`{"name":"one","cohorts":[{"name":"c","class":"hft","weight":1,"tasks":[1,1],` +
		`"util":[0.1,0.1],"period":["1ms","1ms"]}],"windows":[{"name":"w","start":0,"end":1,"rate":1}]}`))
	// A window rate that drives the one symbol's price walk toward zero,
	// and a window too narrow to span a nanosecond at the horizon.
	f.Add([]byte(`{"name":"hot","symbols":1,"cohorts":[{"name":"c","class":"hft","weight":1,"tasks":[1,1],` +
		`"util":[0.1,0.1],"period":["1ms","1ms"]}],"windows":[{"name":"w","start":0,"end":1,"rate":1e6}]}`))
	f.Add([]byte(`{"name":"blip","cohorts":[{"name":"c","class":"hft","weight":1,"tasks":[1,1],` +
		`"util":[0.1,0.1],"period":["1ms","1ms"]}],"windows":[{"name":"a","start":0,"end":1e-12,"rate":1},` +
		`{"name":"b","start":1e-12,"end":1,"rate":1}]}`))
	f.Add([]byte(`{"name":"x","cohorts":[]}`))
	f.Add([]byte("{}"))
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := ParseSpec(bytes.NewReader(data))
		if err != nil {
			return
		}
		const horizon = 100 * time.Millisecond
		src, err := Compile(spec, CompileConfig{Clients: 16, Seed: 5, Horizon: horizon})
		if errors.Is(err, errEmptyWindow) {
			return // a window narrower than a nanosecond at this horizon
		}
		if err != nil {
			t.Fatalf("accepted spec does not compile: %v", err)
		}
		for id := 0; id < src.Len(); id++ {
			if at := src.Params(id).Arrival; at < 0 || at > horizon {
				t.Fatalf("client %d arrives at %v, outside [0, %v]", id, at, horizon)
			}
		}
		tr := src.Trace(32)
		var buf bytes.Buffer
		if err := Write(&buf, tr); err != nil {
			t.Fatalf("write: %v", err)
		}
		back, err := Decode(buf.Bytes())
		if err != nil {
			t.Fatalf("recorded trace rejected: %v", err)
		}
		if !reflect.DeepEqual(back, tr) {
			t.Fatalf("round trip changed the trace:\n%+v\nwant\n%+v", back.Meta, tr.Meta)
		}
	})
}
