package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"

	"rrr"
	"rrr/internal/events"
	"rrr/internal/trie"
)

// EventJSON is the wire form of a routing event on /v1/events and the SSE
// stream's `event: routing` frames. BGP classes carry prefix/as; trace
// classes carry key.
type EventJSON struct {
	Class       string  `json:"class"`
	WindowStart int64   `json:"windowStart"`
	Prefix      string  `json:"prefix,omitempty"`
	AS          uint32  `json:"as,omitempty"`
	Key         string  `json:"key,omitempty"`
	Detail      string  `json:"detail,omitempty"`
	Score       float64 `json:"score,omitempty"`
	VPCount     int     `json:"vpCount,omitempty"`
}

// toEventJSON renders one routing event in wire form.
func toEventJSON(ev events.Event) EventJSON {
	ej := EventJSON{
		Class:       ev.Class.String(),
		WindowStart: ev.WindowStart,
		AS:          uint32(ev.AS),
		Detail:      ev.Detail,
		Score:       ev.Score,
		VPCount:     ev.VPCount,
	}
	if ev.Prefix.Len != 0 || ev.Prefix.Addr != 0 {
		ej.Prefix = ev.Prefix.String()
	}
	if ev.Key != (rrr.Key{}) {
		ej.Key = FormatKey(ev.Key)
	}
	return ej
}

// ParseEvent decodes a wire-form routing event back into the detector's
// representation. The cluster router uses the decoded form only for
// ordering (events.EventLess) and deduplication, and re-emits the original
// bytes, mirroring ParseSignal.
func ParseEvent(data []byte) (events.Event, error) {
	var ej EventJSON
	if err := json.Unmarshal(data, &ej); err != nil {
		return events.Event{}, err
	}
	cls, err := events.ParseClass(ej.Class)
	if err != nil {
		return events.Event{}, err
	}
	ev := events.Event{
		Class:       cls,
		WindowStart: ej.WindowStart,
		AS:          rrr.ASN(ej.AS),
		Detail:      ej.Detail,
		Score:       ej.Score,
		VPCount:     ej.VPCount,
	}
	if ej.Prefix != "" {
		p, err := trie.ParsePrefix(ej.Prefix)
		if err != nil {
			return events.Event{}, fmt.Errorf("event prefix: %v", err)
		}
		ev.Prefix = p
	}
	if ej.Key != "" {
		k, err := ParseKey(ej.Key)
		if err != nil {
			return events.Event{}, fmt.Errorf("event key: %v", err)
		}
		ev.Key = k
	}
	return ev, nil
}

// WriteEvents answers /v1/events with events already in wire form: a
// worker's own detector emissions, or worker-rendered bytes the cluster
// router merged.
func WriteEvents[E EventJSON | json.RawMessage](w http.ResponseWriter, evs []E) {
	WriteJSON(w, http.StatusOK, map[string]any{"count": len(evs), "events": evs})
}

func toEventJSONs(evs []events.Event) []EventJSON {
	out := make([]EventJSON, len(evs))
	for i, ev := range evs {
		out[i] = toEventJSON(ev)
	}
	return out
}

// PublishEvent is the event detector's sink: it appends a routing event's
// frame to the SSE stream without blocking ingestion, like Publish. The
// detector emits at window close, after the window's signals and before
// the pipeline's OnWindowClose marker, so each stream reads signals →
// routing events → window marker. Wire it in with the detector's
// SetSink.
func (s *Server) PublishEvent(ev events.Event) {
	s.publish(func() []byte { return jsonFrame("routing", toEventJSON(ev)) })
}

// eventsQueryJSON is the POST /v1/events filter body.
type eventsQueryJSON struct {
	Classes    []string `json:"classes,omitempty"`
	FromWindow int64    `json:"fromWindow,omitempty"`
	ToWindow   int64    `json:"toWindow,omitempty"`
}

// MaxEventsBodyBytes caps a POST /v1/events body: a filter is a class list
// and two window bounds, which fit in a fraction of this. A longer body is
// refused with 413 on both tiers.
const MaxEventsBodyBytes = 64 << 10

// handleEvents is GET /v1/events — every routing event emitted so far, in
// window order (EventLess within a window) — and POST /v1/events, the same
// list narrowed by class set and window range.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Events == nil {
		WriteErr(w, http.StatusConflict, "event detection not enabled")
		return
	}
	body, ok := ReadBody(w, r, MaxEventsBodyBytes)
	if !ok {
		return
	}
	var req eventsQueryJSON
	if r.Method == http.MethodPost {
		// A decoder, not Unmarshal: bytes after the filter are ignored.
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
			WriteErr(w, http.StatusBadRequest, "bad request body: "+err.Error())
			return
		}
	}
	f := events.Filter{FromWindow: req.FromWindow, ToWindow: req.ToWindow}
	for _, name := range req.Classes {
		cls, err := events.ParseClass(name)
		if err != nil {
			WriteErr(w, http.StatusBadRequest, err.Error())
			return
		}
		f.Classes = append(f.Classes, cls)
	}
	WriteEvents(w, toEventJSONs(s.cfg.Events.Filtered(f)))
}
