package task

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"
)

// taskJSON is the on-disk form of a Task: durations as Go duration strings
// so configs stay human-editable.
type taskJSON struct {
	Name      string `json:"name"`
	Mandatory string `json:"mandatory"`
	Windup    string `json:"windup"`
	Period    string `json:"period"`
	Optional  string `json:"optional"`
	NumOpt    int    `json:"numOptional"`
}

// setJSON is the on-disk form of a Set.
type setJSON struct {
	Tasks []taskJSON `json:"tasks"`
}

// ReadJSON parses a task-set JSON file and validates it. The file stores a
// task's parallel optional parts as one length and a count, as Uniform
// takes them.
func ReadJSON(r io.Reader) (*Set, error) {
	var in setJSON
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&in); err != nil {
		return nil, fmt.Errorf("task: parse json: %w", err)
	}
	tasks := make([]Task, 0, len(in.Tasks))
	for _, tj := range in.Tasks {
		m, err := parseDur(tj.Name, "mandatory", tj.Mandatory)
		if err != nil {
			return nil, err
		}
		w, err := parseDur(tj.Name, "windup", tj.Windup)
		if err != nil {
			return nil, err
		}
		period, err := parseDur(tj.Name, "period", tj.Period)
		if err != nil {
			return nil, err
		}
		var opt time.Duration
		if tj.Optional != "" {
			opt, err = parseDur(tj.Name, "optional", tj.Optional)
			if err != nil {
				return nil, err
			}
		}
		t, err := uniformTask(tj.Name, m, w, opt, tj.NumOpt, period)
		if err != nil {
			return nil, err
		}
		tasks = append(tasks, t)
	}
	return newNamedSet(tasks)
}

func parseDur(task, field, v string) (time.Duration, error) {
	if v == "" {
		return 0, fmt.Errorf("task %s: missing %s", task, field)
	}
	d, err := time.ParseDuration(v)
	if err != nil {
		return 0, fmt.Errorf("task %s: %s: %w", task, field, err)
	}
	return d, nil
}

// LoadFile reads a task-set JSON file.
func LoadFile(path string) (*Set, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadJSON(f)
}
