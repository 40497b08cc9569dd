package task

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"rtseed/internal/trace"
)

// ParseSpec parses a compact task-set description used by the command-line
// tools. The grammar is a semicolon-separated list of tasks, each
//
//	name:m=<dur>,w=<dur>,T=<dur>[,o=<dur>][,np=<int>]
//
// for example:
//
//	tau1:m=250ms,w=250ms,T=1s,o=1s,np=8; tau2:m=10ms,w=5ms,T=100ms
//
// Durations use Go syntax (ms, s, ...). np defaults to 0 (no optional
// parts) and is at most trace.MaxCPUs; o is required when np > 0.
func ParseSpec(spec string) (*Set, error) {
	var tasks []Task
	for _, chunk := range strings.Split(spec, ";") {
		chunk = strings.TrimSpace(chunk)
		if chunk == "" {
			continue
		}
		t, err := parseTask(chunk)
		if err != nil {
			return nil, err
		}
		tasks = append(tasks, t)
	}
	return newNamedSet(tasks)
}

// newNamedSet is NewSet for the decoders of user input, which must also
// reject a repeated task name: a partition, its P-RMWP processes and their
// applications are keyed by name, so two tasks sharing one would collapse
// into one. NewSet itself leaves names alone for callers, like the fleet's
// per-core simulation, that key nothing by name.
func newNamedSet(tasks []Task) (*Set, error) {
	seen := make(map[string]bool, len(tasks))
	for _, t := range tasks {
		if seen[t.Name] {
			return nil, fmt.Errorf("task %s: duplicate task name", t.Name)
		}
		seen[t.Name] = true
	}
	return NewSet(tasks...)
}

// uniformTask is Uniform for the decoders of user input. It rejects np > 0
// without a positive length o, and np outside [0, trace.MaxCPUs]: each
// optional part needs its own hardware thread (assign.HWThreads), and a
// trace numbers at most trace.MaxCPUs of them.
func uniformTask(name string, m, w, o time.Duration, np int, period time.Duration) (Task, error) {
	if np < 0 || np > trace.MaxCPUs {
		return Task{}, fmt.Errorf("task %s: np=%d outside [0, %d]", name, np, trace.MaxCPUs)
	}
	if np > 0 && o <= 0 {
		return Task{}, fmt.Errorf("task %s: np=%d requires a positive optional length", name, np)
	}
	return Uniform(name, m, w, o, np, period), nil
}

func parseTask(chunk string) (Task, error) {
	name, rest, ok := strings.Cut(chunk, ":")
	if !ok {
		return Task{}, fmt.Errorf("task: spec %q missing name separator ':'", chunk)
	}
	name = strings.TrimSpace(name)
	if name == "" {
		return Task{}, fmt.Errorf("task: spec %q has an empty name", chunk)
	}
	var m, w, period, optLen time.Duration
	np := 0
	for _, field := range strings.Split(rest, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		key, val, ok := strings.Cut(field, "=")
		if !ok {
			return Task{}, fmt.Errorf("task %s: field %q is not key=value", name, field)
		}
		key = strings.TrimSpace(key)
		val = strings.TrimSpace(val)
		switch key {
		case "np":
			n, err := strconv.Atoi(val)
			if err != nil {
				return Task{}, fmt.Errorf("task %s: np: %w", name, err)
			}
			np = n
		case "m", "w", "T", "o":
			d, err := time.ParseDuration(val)
			if err != nil {
				return Task{}, fmt.Errorf("task %s: %s: %w", name, key, err)
			}
			switch key {
			case "m":
				m = d
			case "w":
				w = d
			case "T":
				period = d
			case "o":
				optLen = d
			}
		default:
			return Task{}, fmt.Errorf("task %s: unknown field %q", name, key)
		}
	}
	return uniformTask(name, m, w, optLen, np, period)
}
