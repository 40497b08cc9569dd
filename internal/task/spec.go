package task

import (
	"fmt"
	"strconv"
	"strings"
	"time"
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
// parts); o is required when np > 0.
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

func parseTask(chunk string) (Task, error) {
	name, rest, ok := strings.Cut(chunk, ":")
	if !ok {
		return Task{}, fmt.Errorf("task: spec %q missing name separator ':'", chunk)
	}
	name = strings.TrimSpace(name)
	if name == "" {
		return Task{}, fmt.Errorf("task: spec %q has an empty name", chunk)
	}
	t := Task{Name: name}
	var optLen time.Duration
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
				t.Mandatory = d
			case "w":
				t.Windup = d
			case "T":
				t.Period = d
			case "o":
				optLen = d
			}
		default:
			return Task{}, fmt.Errorf("task %s: unknown field %q", name, key)
		}
	}
	if np < 0 {
		return Task{}, fmt.Errorf("task %s: np must be non-negative, got %d", name, np)
	}
	if np > 0 && optLen <= 0 {
		return Task{}, fmt.Errorf("task %s: np=%d requires o=<duration>", name, np)
	}
	t.Optional = make([]time.Duration, np)
	for i := range t.Optional {
		t.Optional[i] = optLen
	}
	if err := t.Validate(); err != nil {
		return Task{}, err
	}
	return t, nil
}
