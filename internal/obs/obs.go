// Package obs exports simulation observability data in externally
// consumable formats. Its first citizen is the Chrome trace-event JSON
// encoding of a sim.Tracer ring, loadable in Perfetto
// (https://ui.perfetto.dev) or chrome://tracing: cores become threads,
// engine/global activity gets per-category lanes, spans render as
// slices and instants as markers.
//
// The package deliberately sits above internal/sim (it imports it, not
// the other way around): the tracer itself must stay allocation-free
// and dependency-free, while export can afford encoding/json.
package obs

import (
	"encoding/json"
	"fmt"
	"io"

	"coregap/internal/sim"
)

// Lane numbering in the exported trace: core lanes use their core
// number as tid; global (non-core) events get one lane per category so
// engine churn does not bury granule transitions.
const globalLaneBase = 100

// chromeEvent is one entry of the trace-event JSON array. Field names
// and phase codes follow the Trace Event Format spec that Perfetto and
// chrome://tracing consume.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"` // microseconds; fractional part carries ns
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	S    string         `json:"s,omitempty"` // instant scope
	Args map[string]any `json:"args,omitempty"`
}

// chromeTrace is the top-level JSON object form of the format.
type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// usec converts a sim-time nanosecond count to the format's
// microsecond unit, keeping nanosecond precision in the fraction.
func usec(ns int64) float64 { return float64(ns) / 1e3 }

// tid maps a trace event to its display lane.
func tid(ev sim.TraceEvent) int {
	if ev.Lane >= 0 {
		return int(ev.Lane)
	}
	return globalLaneBase + int(ev.Cat)
}

// ChromeTrace writes events as Chrome trace-event JSON. proc names the
// process row in the viewer (typically the scenario id). Events with a
// nonzero Dur become complete ("X") slices; the rest become
// thread-scoped instants ("i").
func ChromeTrace(w io.Writer, proc string, events []sim.TraceEvent) error {
	out := chromeTrace{DisplayTimeUnit: "ns"}
	out.TraceEvents = append(out.TraceEvents, chromeEvent{
		Name: "process_name", Ph: "M", PID: 1,
		Args: map[string]any{"name": proc},
	})
	// Name each lane that actually carries events, once.
	named := map[int]bool{}
	for _, ev := range events {
		t := tid(ev)
		if named[t] {
			continue
		}
		named[t] = true
		label := ev.Cat.String()
		if ev.Lane >= 0 {
			label = fmt.Sprintf("core %d", ev.Lane)
		}
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name: "thread_name", Ph: "M", PID: 1, TID: t,
			Args: map[string]any{"name": label},
		})
	}
	for _, ev := range events {
		ce := chromeEvent{
			Name: ev.Name,
			Cat:  ev.Cat.String(),
			TS:   usec(int64(ev.At)),
			PID:  1,
			TID:  tid(ev),
			Args: map[string]any{"arg": ev.Arg},
		}
		if ev.Det != "" {
			ce.Args["detail"] = ev.Det
		}
		if ev.Dur > 0 {
			ce.Ph = "X"
			ce.Dur = usec(int64(ev.Dur))
		} else {
			ce.Ph = "i"
			ce.S = "t"
		}
		out.TraceEvents = append(out.TraceEvents, ce)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(out)
}

// ValidateChrome structurally checks data against the trace-event
// schema subset ChromeTrace emits: a traceEvents array whose entries
// carry name/ph/pid/tid, with known phase codes and — because the
// tracer records in engine order — monotonically non-decreasing
// timestamps for the non-metadata events. It returns the number of
// non-metadata events on success.
func ValidateChrome(data []byte) (int, error) {
	var doc struct {
		TraceEvents []struct {
			Name *string  `json:"name"`
			Ph   *string  `json:"ph"`
			TS   *float64 `json:"ts"`
			Dur  float64  `json:"dur"`
			PID  *int     `json:"pid"`
			TID  *int     `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return 0, fmt.Errorf("obs: not valid JSON: %w", err)
	}
	if doc.TraceEvents == nil {
		return 0, fmt.Errorf("obs: missing traceEvents array")
	}
	n := 0
	last := -1.0
	for i, ev := range doc.TraceEvents {
		if ev.Name == nil || ev.Ph == nil || ev.PID == nil {
			return 0, fmt.Errorf("obs: event %d missing name/ph/pid", i)
		}
		switch *ev.Ph {
		case "M":
			continue
		case "C":
			if ev.TS == nil {
				return 0, fmt.Errorf("obs: counter event %d missing ts", i)
			}
			n++
			continue
		case "X", "i":
		default:
			return 0, fmt.Errorf("obs: event %d has unknown phase %q", i, *ev.Ph)
		}
		if ev.TS == nil || ev.TID == nil {
			return 0, fmt.Errorf("obs: event %d missing ts/tid", i)
		}
		if *ev.TS < last {
			return 0, fmt.Errorf("obs: event %d timestamp %v before %v", i, *ev.TS, last)
		}
		last = *ev.TS
		if *ev.Ph == "X" && ev.Dur <= 0 {
			return 0, fmt.Errorf("obs: complete event %d has no duration", i)
		}
		n++
	}
	return n, nil
}
