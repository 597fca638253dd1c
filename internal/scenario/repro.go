package scenario

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// This file is the repro format: a failing soak run is written to disk
// as a small text file that a human can read, edit, and commit, and
// that TestScenarioRepros replays forever after. The format is
// line-oriented on purpose — repro files live in version control and
// get diffed.
//
//	# free-form comment lines
//	validators=3
//	equivocation-guard=off        (only when the guard was sabotaged)
//	step equivocate 0 5 0 0
//	step heal 0 0 0 0
//
// Step operands are the raw plan selectors (a b c arg); they resolve
// modulo the live populations at replay time exactly as in a generated
// plan.

// opByName resolves the step keyword of a repro line. Built from the
// decodable rows, so OpSabotage can never enter via a repro file — same
// safety property as DecodePlan.
var opByName = func() map[string]Op {
	m := make(map[string]Op, len(decodable))
	for op, spec := range decodable {
		m[spec.name] = Op(op)
	}
	return m
}()

// EncodeRepro renders a run's plan (and the config facets that shape
// replay behaviour) in the repro format. The failure, trace command,
// and seed ride along as comments: provenance for the human, inert for
// the decoder.
func EncodeRepro(cfg Config, res *RunResult) []byte {
	cfg = cfg.withDefaults()
	var b bytes.Buffer
	fmt.Fprintf(&b, "# scenario repro (seed=%d shrink-runs=%d)\n", res.Seed, res.ShrinkRuns)
	if res.Failure != nil {
		fmt.Fprintf(&b, "# failure: %s %q at step %d\n", res.Failure.Kind, res.Failure.Name, res.Failure.Step)
	} else {
		fmt.Fprintf(&b, "# regression plan: replay must PASS\n")
	}
	fmt.Fprintf(&b, "validators=%d\n", cfg.Validators)
	if cfg.DisableEquivocationGuard {
		fmt.Fprintf(&b, "equivocation-guard=off\n")
	}
	for _, st := range res.Plan {
		fmt.Fprintf(&b, "step %s %d %d %d %d\n", st.Op, st.A, st.B, st.C, st.Arg)
	}
	return b.Bytes()
}

// DecodeRepro parses a repro file back into a replayable (config, plan)
// pair. Unknown keys and malformed lines are errors, not warnings: a
// repro that silently replays something other than what it says is
// worse than none.
func DecodeRepro(data []byte) (Config, []Step, error) {
	var cfg Config
	var plan []Step
	sc := bufio.NewScanner(bytes.NewReader(data))
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if key, val, ok := strings.Cut(line, "="); ok && !strings.HasPrefix(line, "step ") {
			switch key {
			case "validators":
				n, err := strconv.Atoi(val)
				if err != nil || n < 2 {
					return cfg, nil, fmt.Errorf("repro line %d: bad validators %q", lineNo, val)
				}
				cfg.Validators = n
			case "equivocation-guard":
				if val != "off" {
					return cfg, nil, fmt.Errorf("repro line %d: equivocation-guard must be \"off\", got %q", lineNo, val)
				}
				cfg.DisableEquivocationGuard = true
			default:
				return cfg, nil, fmt.Errorf("repro line %d: unknown key %q", lineNo, key)
			}
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 6 || fields[0] != "step" {
			return cfg, nil, fmt.Errorf("repro line %d: want \"step <op> <a> <b> <c> <arg>\", got %q", lineNo, line)
		}
		op, ok := opByName[fields[1]]
		if !ok {
			return cfg, nil, fmt.Errorf("repro line %d: unknown op %q", lineNo, fields[1])
		}
		st := Step{Op: op}
		for i, dst := range []*int{&st.A, &st.B, &st.C, &st.Arg} {
			v, err := strconv.Atoi(fields[2+i])
			if err != nil || v < 0 {
				return cfg, nil, fmt.Errorf("repro line %d: bad operand %q", lineNo, fields[2+i])
			}
			*dst = v
		}
		plan = append(plan, st)
	}
	if err := sc.Err(); err != nil {
		return cfg, nil, err
	}
	if len(plan) == 0 {
		return cfg, nil, fmt.Errorf("repro contains no steps")
	}
	cfg.Steps = len(plan)
	return cfg, plan, nil
}

// WriteRepro persists a run as <dir>/<name>.repro (creating dir) and
// returns the path. The soak harness calls it for every shrunk failure
// so the artifact survives the test process. When the run carries a
// metrics snapshot, it lands beside the repro as <name>.metrics.txt —
// the system's instrument readings at the failure instant, for the
// human triaging the artifact (the repro file itself stays replayable
// and diffable, so diagnostics never go in it).
func WriteRepro(dir, name string, cfg Config, res *RunResult) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name+".repro")
	if err := os.WriteFile(path, EncodeRepro(cfg, res), 0o644); err != nil {
		return "", err
	}
	if res.MetricsDump != "" {
		metricsPath := filepath.Join(dir, name+".metrics.txt")
		if err := os.WriteFile(metricsPath, []byte(res.MetricsDump), 0o644); err != nil {
			return "", err
		}
	}
	return path, nil
}

// ReplayRepro decodes and runs a repro file, preserving any config
// facets the file pins (validator count, sabotaged guard).
func ReplayRepro(data []byte) (*RunResult, error) {
	cfg, plan, err := DecodeRepro(data)
	if err != nil {
		return nil, err
	}
	return New(cfg).RunPlan(plan), nil
}
