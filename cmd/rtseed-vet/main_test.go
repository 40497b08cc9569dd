package main

import (
	"bytes"
	"encoding/json"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rtseed/internal/lint"
	"rtseed/internal/lint/suite"
)

// TestRunCleanOnAnnotatedPackages is the end-to-end check that the annotated
// hot paths pass the full suite: loading, type-checking, directive parsing,
// and every analyzer over the engine and kernel.
func TestRunCleanOnAnnotatedPackages(t *testing.T) {
	diags, err := suite.Run("../..", []string{"./internal/engine", "./internal/kernel"})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, d := range diags {
		t.Errorf("unexpected finding: %s", d)
	}
}

// --- exit codes over fixture trees -------------------------------------

// vet runs the CLI against one of the testdata mini-modules and returns the
// exit code plus captured output.
func vet(t *testing.T, dir string, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := vetMain(dir, args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

func TestExitCodeCleanTree(t *testing.T) {
	code, stdout, stderr := vet(t, "testdata/clean")
	if code != 0 {
		t.Errorf("exit code = %d, want 0 (stdout %q, stderr %q)", code, stdout, stderr)
	}
	if stdout != "" {
		t.Errorf("clean tree printed findings: %q", stdout)
	}
}

func TestExitCodeFindings(t *testing.T) {
	code, stdout, _ := vet(t, "testdata/findings")
	if code != 1 {
		t.Errorf("exit code = %d, want 1", code)
	}
	if !strings.Contains(stdout, "findings.go:9:") || !strings.Contains(stdout, "[noalloc]") {
		t.Errorf("finding lacks file:line and analyzer tag: %q", stdout)
	}
}

func TestExitCodeLoadError(t *testing.T) {
	code, _, stderr := vet(t, "testdata/broken")
	if code != 2 {
		t.Errorf("exit code = %d, want 2", code)
	}
	if stderr == "" {
		t.Error("load error printed nothing to stderr")
	}
}

func TestExitCodeBadFlag(t *testing.T) {
	code, _, _ := vet(t, "testdata/clean", "-no-such-flag")
	if code != 2 {
		t.Errorf("exit code = %d, want 2", code)
	}
}

// --- -json against the published schema --------------------------------

// schemaFinding mirrors schema.json exactly; DisallowUnknownFields makes the
// decode fail if the CLI starts emitting fields the schema does not publish.
type schemaFinding struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`
}

func TestJSONOutputMatchesSchema(t *testing.T) {
	code, stdout, stderr := vet(t, "testdata/findings", "-json")
	if code != 1 {
		t.Fatalf("exit code = %d, want 1 (stderr %q)", code, stderr)
	}
	dec := json.NewDecoder(strings.NewReader(stdout))
	dec.DisallowUnknownFields()
	var findings []schemaFinding
	if err := dec.Decode(&findings); err != nil {
		t.Fatalf("-json output does not strictly decode against the schema struct: %v\n%s", err, stdout)
	}
	if len(findings) == 0 {
		t.Fatal("no findings decoded")
	}
	for _, f := range findings {
		if f.Analyzer == "" || f.File == "" || f.Line < 1 || f.Col < 1 || f.Message == "" {
			t.Errorf("finding violates schema required/minimum constraints: %+v", f)
		}
	}
}

func TestJSONCleanTreeEmitsEmptyArray(t *testing.T) {
	code, stdout, _ := vet(t, "testdata/clean", "-json")
	if code != 0 {
		t.Fatalf("exit code = %d, want 0", code)
	}
	if got := strings.TrimSpace(stdout); got != "[]" {
		t.Errorf("clean -json output = %q, want []", got)
	}
}

// TestSchemaFileAgreesWithStruct keeps schema.json and the Go types from
// drifting apart: the findings definition must publish exactly the fields the
// CLI emits (all required), and the stats definition must enumerate exactly
// the waiver directives the suite counts.
func TestSchemaFileAgreesWithStruct(t *testing.T) {
	raw, err := os.ReadFile("schema.json")
	if err != nil {
		t.Fatalf("reading published schema: %v", err)
	}
	var schema struct {
		OneOf []struct {
			Ref string `json:"$ref"`
		} `json:"oneOf"`
		Defs struct {
			Findings struct {
				Type  string `json:"type"`
				Items struct {
					Properties           map[string]json.RawMessage `json:"properties"`
					Required             []string                   `json:"required"`
					AdditionalProperties bool                       `json:"additionalProperties"`
				} `json:"items"`
			} `json:"findings"`
			Stats struct {
				Type       string   `json:"type"`
				Required   []string `json:"required"`
				Properties struct {
					Directives struct {
						PropertyNames struct {
							Enum []string `json:"enum"`
						} `json:"propertyNames"`
					} `json:"directives"`
				} `json:"properties"`
			} `json:"stats"`
		} `json:"$defs"`
	}
	if err := json.Unmarshal(raw, &schema); err != nil {
		t.Fatalf("schema.json is not valid JSON: %v", err)
	}

	refs := map[string]bool{}
	for _, o := range schema.OneOf {
		refs[o.Ref] = true
	}
	for _, want := range []string{"#/$defs/findings", "#/$defs/sarif", "#/$defs/stats"} {
		if !refs[want] {
			t.Errorf("schema oneOf lacks %q", want)
		}
	}

	findings := schema.Defs.Findings
	if findings.Type != "array" {
		t.Errorf("findings type = %q, want array", findings.Type)
	}
	if findings.Items.AdditionalProperties {
		t.Error("findings schema must forbid additional properties")
	}
	structFields := []string{"analyzer", "file", "line", "col", "message"}
	for _, f := range structFields {
		if _, ok := findings.Items.Properties[f]; !ok {
			t.Errorf("schema.json lacks property %q emitted by the CLI", f)
		}
	}
	if len(findings.Items.Properties) != len(structFields) {
		t.Errorf("schema publishes %d properties, CLI emits %d", len(findings.Items.Properties), len(structFields))
	}
	required := map[string]bool{}
	for _, r := range findings.Items.Required {
		required[r] = true
	}
	for _, f := range structFields {
		if !required[f] {
			t.Errorf("schema does not require %q", f)
		}
	}

	stats := schema.Defs.Stats
	if stats.Type != "object" {
		t.Errorf("stats type = %q, want object", stats.Type)
	}
	if len(stats.Required) != 1 || stats.Required[0] != "directives" {
		t.Errorf("stats required = %v, want [directives]", stats.Required)
	}
	enum := map[string]bool{}
	for _, name := range stats.Properties.Directives.PropertyNames.Enum {
		enum[name] = true
	}
	for _, name := range suite.WaiverDirectives {
		if !enum[name] {
			t.Errorf("stats schema does not enumerate directive %q counted by the suite", name)
		}
	}
	if len(enum) != len(suite.WaiverDirectives) {
		t.Errorf("stats schema enumerates %d directives, suite counts %d", len(enum), len(suite.WaiverDirectives))
	}
}

// --- -sarif against the published schema ---------------------------------

// The sarif* structs mirror the $defs/sarif subset of schema.json exactly;
// DisallowUnknownFields makes the decode fail if the CLI starts emitting
// SARIF properties the schema does not publish.
type sarifLog struct {
	Schema  string     `json:"$schema"`
	Version string     `json:"version"`
	Runs    []sarifRun `json:"runs"`
}

type sarifRun struct {
	Tool struct {
		Driver struct {
			Name  string `json:"name"`
			Rules []struct {
				ID               string       `json:"id"`
				ShortDescription sarifMessage `json:"shortDescription"`
			} `json:"rules"`
		} `json:"driver"`
	} `json:"tool"`
	Results []sarifResult `json:"results"`
}

type sarifResult struct {
	RuleID    string       `json:"ruleId"`
	RuleIndex int          `json:"ruleIndex"`
	Level     string       `json:"level"`
	Message   sarifMessage `json:"message"`
	Locations []struct {
		PhysicalLocation struct {
			ArtifactLocation struct {
				URI string `json:"uri"`
			} `json:"artifactLocation"`
			Region struct {
				StartLine   int `json:"startLine"`
				StartColumn int `json:"startColumn"`
			} `json:"region"`
		} `json:"physicalLocation"`
	} `json:"locations"`
}

type sarifMessage struct {
	Text string `json:"text"`
}

// decodeSARIF strictly decodes a -sarif document and checks the envelope
// invariants every emission must satisfy.
func decodeSARIF(t *testing.T, s string) sarifLog {
	t.Helper()
	dec := json.NewDecoder(strings.NewReader(s))
	dec.DisallowUnknownFields()
	var log sarifLog
	if err := dec.Decode(&log); err != nil {
		t.Fatalf("-sarif output does not strictly decode against the schema struct: %v\n%s", err, s)
	}
	if log.Version != "2.1.0" {
		t.Errorf("sarif version = %q, want 2.1.0", log.Version)
	}
	if len(log.Runs) != 1 {
		t.Fatalf("sarif has %d runs, want exactly 1", len(log.Runs))
	}
	if got := log.Runs[0].Tool.Driver.Name; got != "rtseed-vet" {
		t.Errorf("driver name = %q, want rtseed-vet", got)
	}
	return log
}

func TestSARIFOutputMatchesSchema(t *testing.T) {
	code, stdout, stderr := vet(t, "testdata/findings", "-sarif")
	if code != 1 {
		t.Fatalf("exit code = %d, want 1 (stderr %q)", code, stderr)
	}
	log := decodeSARIF(t, stdout)
	run := log.Runs[0]
	if len(run.Results) == 0 {
		t.Fatal("no results for a tree with findings")
	}
	rules := map[string]int{}
	for i, r := range run.Tool.Driver.Rules {
		rules[r.ID] = i
	}
	for _, a := range suite.Analyzers {
		if _, ok := rules[a.Name]; !ok {
			t.Errorf("driver rules lack analyzer %q", a.Name)
		}
	}
	for _, r := range run.Results {
		idx, ok := rules[r.RuleID]
		if !ok {
			t.Errorf("result ruleId %q has no driver rule", r.RuleID)
		} else if r.RuleIndex != idx {
			t.Errorf("result ruleIndex = %d, rule %q sits at %d", r.RuleIndex, r.RuleID, idx)
		}
		if r.Level != "error" {
			t.Errorf("result level = %q, want error", r.Level)
		}
		if len(r.Locations) != 1 {
			t.Errorf("result has %d locations, want 1", len(r.Locations))
			continue
		}
		loc := r.Locations[0].PhysicalLocation
		if strings.HasPrefix(loc.ArtifactLocation.URI, "/") || strings.Contains(loc.ArtifactLocation.URI, `\`) {
			t.Errorf("artifact URI %q is not a relative slash path", loc.ArtifactLocation.URI)
		}
		if loc.Region.StartLine < 1 || loc.Region.StartColumn < 1 {
			t.Errorf("region %+v violates 1-based minimums", loc.Region)
		}
	}
	// The noalloc finding the fixture seeds must anchor to its file.
	found := false
	for _, r := range run.Results {
		if r.RuleID == "noalloc" && strings.HasSuffix(r.Locations[0].PhysicalLocation.ArtifactLocation.URI, "findings.go") {
			found = true
		}
	}
	if !found {
		t.Errorf("expected a noalloc result anchored to findings.go; got %s", stdout)
	}
}

func TestSARIFCleanTreeEmitsEmptyResults(t *testing.T) {
	code, stdout, stderr := vet(t, "testdata/clean", "-sarif")
	if code != 0 {
		t.Fatalf("exit code = %d, want 0 (stderr %q)", code, stderr)
	}
	log := decodeSARIF(t, stdout)
	if log.Runs[0].Results == nil {
		t.Error("clean tree must emit results: [], not null (code scanning rejects a missing array)")
	}
	if len(log.Runs[0].Results) != 0 {
		t.Errorf("clean tree emitted %d results", len(log.Runs[0].Results))
	}
}

func TestSARIFExcludesOtherOutputForms(t *testing.T) {
	for _, args := range [][]string{{"-sarif", "-json"}, {"-sarif", "-stats"}} {
		code, _, stderr := vet(t, "testdata/clean", args...)
		if code != 2 {
			t.Errorf("%v: exit code = %d, want 2 (stderr %q)", args, code, stderr)
		}
	}
}

// --- -stats and -budget over the waived mini-module ----------------------

// schemaStats mirrors the stats definition of schema.json exactly;
// DisallowUnknownFields makes the decode fail if the CLI starts emitting
// fields the schema does not publish.
type schemaStats struct {
	Directives map[string]int `json:"directives"`
}

// decodeStats strictly decodes a -stats document.
func decodeStats(t *testing.T, s string) schemaStats {
	t.Helper()
	dec := json.NewDecoder(strings.NewReader(s))
	dec.DisallowUnknownFields()
	var stats schemaStats
	if err := dec.Decode(&stats); err != nil {
		t.Fatalf("-stats output does not strictly decode against the schema struct: %v\n%s", err, s)
	}
	return stats
}

func TestStatsCensusOverWaivedTree(t *testing.T) {
	code, stdout, stderr := vet(t, "testdata/waived", "-stats")
	if code != 0 {
		t.Fatalf("exit code = %d, want 0 (stderr %q)", code, stderr)
	}
	stats := decodeStats(t, stdout)
	for _, name := range suite.WaiverDirectives {
		want := 0
		if name == "alloc-ok" {
			want = 1
		}
		got, ok := stats.Directives[name]
		if !ok {
			t.Errorf("census lacks directive %q; every known name must appear", name)
		} else if got != want {
			t.Errorf("census[%q] = %d, want %d", name, got, want)
		}
	}
	if len(stats.Directives) != len(suite.WaiverDirectives) {
		t.Errorf("census has %d entries, want %d", len(stats.Directives), len(suite.WaiverDirectives))
	}
}

func TestStatsFindingsGoToStderr(t *testing.T) {
	code, stdout, stderr := vet(t, "testdata/findings", "-stats")
	if code != 1 {
		t.Errorf("exit code = %d, want 1 (findings still fail -stats runs)", code)
	}
	decodeStats(t, stdout) // stdout must stay pure census JSON
	if !strings.Contains(stderr, "[noalloc]") {
		t.Errorf("findings did not reach stderr: %q", stderr)
	}
}

// writeBudget writes a budget file with the given counts and returns its path.
func writeBudget(t *testing.T, counts map[string]int) string {
	t.Helper()
	full := map[string]int{}
	for _, name := range suite.WaiverDirectives {
		full[name] = counts[name]
	}
	raw, err := json.Marshal(schemaStats{Directives: full})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "lint-budget.json")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestBudgetGrowthFails(t *testing.T) {
	path := writeBudget(t, map[string]int{"alloc-ok": 0})
	before, _ := os.ReadFile(path)
	code, _, stderr := vet(t, "testdata/waived", "-budget", path)
	if code != 1 {
		t.Errorf("exit code = %d, want 1 (stderr %q)", code, stderr)
	}
	if !strings.Contains(stderr, "waiver budget exceeded") || !strings.Contains(stderr, "alloc-ok") {
		t.Errorf("budget violation not named: %q", stderr)
	}
	after, _ := os.ReadFile(path)
	if !bytes.Equal(before, after) {
		t.Error("budget file was rewritten on a failing run")
	}
}

func TestBudgetLoweringRegenerates(t *testing.T) {
	path := writeBudget(t, map[string]int{"alloc-ok": 5})
	code, _, stderr := vet(t, "testdata/waived", "-budget", path)
	if code != 0 {
		t.Fatalf("exit code = %d, want 0 (stderr %q)", code, stderr)
	}
	if !strings.Contains(stderr, "regenerated") {
		t.Errorf("lowering did not announce the rewrite: %q", stderr)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got := decodeStats(t, string(raw))
	if got.Directives["alloc-ok"] != 1 {
		t.Errorf("regenerated budget[alloc-ok] = %d, want 1", got.Directives["alloc-ok"])
	}
}

func TestBudgetExactMatchLeavesFileAlone(t *testing.T) {
	path := writeBudget(t, map[string]int{"alloc-ok": 1})
	before, _ := os.ReadFile(path)
	code, _, stderr := vet(t, "testdata/waived", "-budget", path)
	if code != 0 {
		t.Fatalf("exit code = %d, want 0 (stderr %q)", code, stderr)
	}
	after, _ := os.ReadFile(path)
	if !bytes.Equal(before, after) {
		t.Error("budget file was rewritten although the census matches it exactly")
	}
}

func TestBudgetMissingFileIsAnError(t *testing.T) {
	code, _, stderr := vet(t, "testdata/waived", "-budget", filepath.Join(t.TempDir(), "absent.json"))
	if code != 2 {
		t.Errorf("exit code = %d, want 2 (stderr %q)", code, stderr)
	}
}

// TestCommittedBudgetMatchesTree pins the repository's own lint-budget.json
// to the live tree: a mismatch in either direction means a waiver was added
// or removed without running make lint.
func TestCommittedBudgetMatchesTree(t *testing.T) {
	if testing.Short() {
		t.Skip("loads the whole module")
	}
	_, stats, err := suite.RunWithStats("../..", []string{"./..."})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	raw, err := os.ReadFile("../../lint-budget.json")
	if err != nil {
		t.Fatalf("reading committed budget: %v", err)
	}
	budget := decodeStats(t, string(raw))
	for _, name := range suite.WaiverDirectives {
		if got, want := stats.Directives[name], budget.Directives[name]; got != want {
			t.Errorf("tree has %d //rtseed:%s directives, lint-budget.json records %d (run make lint to reconcile)",
				got, name, want)
		}
	}
}

// --- output formatting --------------------------------------------------

func TestPrintJSONEmitsArray(t *testing.T) {
	var buf bytes.Buffer
	if err := suite.Print(&buf, nil, true); err != nil {
		t.Fatal(err)
	}
	if got := strings.TrimSpace(buf.String()); got != "[]" {
		t.Errorf("empty JSON output = %q, want []", got)
	}
}

func TestPrintJSONRoundTrip(t *testing.T) {
	in := []lint.Diagnostic{{
		Analyzer: "detflow",
		Pos:      token.Position{Filename: "x.go", Line: 3, Column: 7},
		File:     "x.go", Line: 3, Col: 7,
		Message: "call to time.Now",
	}}
	var buf bytes.Buffer
	if err := suite.Print(&buf, in, true); err != nil {
		t.Fatal(err)
	}
	var out []lint.Diagnostic
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if len(out) != 1 || out[0].Analyzer != "detflow" || out[0].Line != 3 {
		t.Errorf("round trip = %+v", out)
	}
}

func TestPrintText(t *testing.T) {
	in := []lint.Diagnostic{{
		Analyzer: "noalloc",
		Pos:      token.Position{Filename: "y.go", Line: 9, Column: 2},
		File:     "y.go", Line: 9, Col: 2,
		Message: "append may grow",
	}}
	var buf bytes.Buffer
	if err := suite.Print(&buf, in, false); err != nil {
		t.Fatal(err)
	}
	if got, want := buf.String(), "y.go:9:2: [noalloc] append may grow\n"; got != want {
		t.Errorf("text output = %q, want %q", got, want)
	}
}
