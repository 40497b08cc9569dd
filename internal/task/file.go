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
	Optional  string `json:"optional,omitempty"`
	NumOpt    int    `json:"numOptional,omitempty"`
}

// setJSON is the on-disk form of a Set.
type setJSON struct {
	Tasks []taskJSON `json:"tasks"`
}

// WriteJSON serializes the set as indented JSON with human-readable
// durations. Tasks with non-uniform optional parts are rejected — the file
// format stores one length plus a count, matching Uniform.
func (s *Set) WriteJSON(w io.Writer) error {
	out := setJSON{Tasks: make([]taskJSON, 0, s.Len())}
	for _, t := range s.Tasks {
		tj := taskJSON{
			Name:      t.Name,
			Mandatory: t.Mandatory.String(),
			Windup:    t.Windup.String(),
			Period:    t.Period.String(),
			NumOpt:    t.NumOptional(),
		}
		if len(t.Optional) > 0 {
			first := t.Optional[0]
			for k, o := range t.Optional {
				if o != first {
					return fmt.Errorf("task %s: optional part %d differs; the JSON format stores uniform parts", t.Name, k)
				}
			}
			tj.Optional = first.String()
		}
		out.Tasks = append(out.Tasks, tj)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// ReadJSON parses a set written by WriteJSON (or hand-authored in the same
// shape) and validates it.
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
		if tj.NumOpt > 0 && opt <= 0 {
			return nil, fmt.Errorf("task %s: numOptional=%d requires optional duration", tj.Name, tj.NumOpt)
		}
		tasks = append(tasks, Uniform(tj.Name, m, w, opt, tj.NumOpt, period))
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

// SaveFile writes the set as a task-set JSON file.
func (s *Set) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return s.WriteJSON(f)
}
