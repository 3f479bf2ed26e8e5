package trace

import (
	"encoding/json"
	"io"

	"xfaas/internal/lifecycle"
	"xfaas/internal/sim"
)

// chromeEvent is one entry of the Chrome/Perfetto trace_event format
// (the "JSON Array Format" of the trace-viewer spec): complete spans
// ("X") with microsecond ts/dur, and instant events ("i"). pid groups by
// submission region; tid is the call ID, so each call reads as one row.
type chromeEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat,omitempty"`
	Ph   string            `json:"ph"`
	Ts   float64           `json:"ts"`
	Dur  float64           `json:"dur,omitempty"`
	Pid  int64             `json:"pid"`
	Tid  uint64            `json:"tid"`
	S    string            `json:"s,omitempty"`
	Args map[string]string `json:"args,omitempty"`
}

type chromeDoc struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

func usOf(t int64) float64 { return float64(t) / 1e3 } // ns → µs

// WriteChrome exports completed traces as Chrome trace_event JSON,
// loadable in chrome://tracing or ui.perfetto.dev. Each call renders as
// its breakdown phases as spans plus every recorded event as an instant;
// output order follows the input slice, so a deterministic trace
// selection yields byte-identical files.
func WriteChrome(w io.Writer, traces []*CallTrace) error {
	doc := chromeDoc{TraceEvents: []chromeEvent{}, DisplayTimeUnit: "ms"}
	for _, t := range traces {
		c, ok := t.Breakdown()
		if !ok {
			continue
		}
		pid, tid := int64(t.Region), t.ID
		cursor := t.SubmitAt
		phase := func(name string, d int64) {
			if d <= 0 {
				return
			}
			doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
				Name: name, Cat: "phase", Ph: "X",
				Ts: usOf(int64(cursor)), Dur: usOf(d), Pid: pid, Tid: tid,
				Args: map[string]string{"func": t.Func},
			})
			cursor += sim.Time(d)
		}
		phase("submit", int64(c.Submit))
		phase("deferred", int64(c.Deferred))
		phase("queue", int64(c.Queue))
		phase("retry", int64(c.Retry))
		phase("sched", int64(c.Sched))
		phase("exec", int64(c.Exec))
		for _, e := range t.Events {
			if e.Kind == lifecycle.Submit {
				continue
			}
			ev := chromeEvent{
				Name: e.Kind.String(), Cat: "event", Ph: "i", S: "t",
				Ts: usOf(int64(e.At)), Pid: pid, Tid: tid,
			}
			if a := FormatArg(e.Kind, e.Arg); a != "" {
				ev.Args = map[string]string{"arg": a}
			}
			doc.TraceEvents = append(doc.TraceEvents, ev)
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(doc)
}
