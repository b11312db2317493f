package sim

// Versioned JSONL trace record/replay. A trace is a header line naming the
// format, trace version and workload.Event schema version, followed by one
// record per merged-stream event: the sequence number, the event itself
// (schema-v1 wire form) and the run's decision digest for that event — the
// post-event objective Φ as IEEE-754 bits in hex (JSON numbers cannot
// carry uint64 exactly; the hex string round-trips bit-exact), the active
// session count and the event's commit count. Replaying feeds the recorded
// events back through the engine and checks each digest as the decisions
// retire: the first mismatch is reported with its sequence number and both
// Φ values.
//
// Reading is line-at-a-time (O(1) memory in trace length); the Replayer
// holds only the digests of in-flight events, so replay keeps the engine's
// O(in-flight) memory contract even through the pipelined path.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"sync"

	"vconf/internal/workload"
)

// Trace format identifiers, embedded in (and checked against) the header.
const (
	TraceFormat  = "vconf-trace"
	TraceVersion = 1
)

// traceHeader is the first line of every trace.
type traceHeader struct {
	Format      string `json:"format"`
	Version     int    `json:"version"`
	EventSchema int    `json:"event_schema"`
}

// Digest is the per-event decision fingerprint recorded next to each
// event: enough to catch any divergence of the control plane's decisions
// (Φ folds every assignment bit in; active and commits catch admission and
// refinement drift even when objectives collide).
type Digest struct {
	// Phi is the post-event total objective.
	Phi float64
	// Active is the post-event active-session count.
	Active int
	// Commits is the event's accepted-move count.
	Commits int
}

// TraceRecord is one JSONL line of the trace body.
type TraceRecord struct {
	Seq     uint64         `json:"seq"`
	Event   workload.Event `json:"event"`
	Phi     string         `json:"phi"`
	Active  int            `json:"active,omitempty"`
	Commits int            `json:"commits,omitempty"`
}

// phiBits encodes Φ as its IEEE-754 bit pattern in hex.
func phiBits(phi float64) string {
	return strconv.FormatUint(math.Float64bits(phi), 16)
}

// parsePhi decodes a phiBits string.
func parsePhi(s string) (float64, error) {
	u, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		return 0, fmt.Errorf("sim: bad phi bits %q: %w", s, err)
	}
	return math.Float64frombits(u), nil
}

// Recorder writes a versioned JSONL trace: one Record call per event of
// the merged stream, in stream order. Safe for the pipelined path's
// retire goroutine to call while the submitter pulls the sources.
type Recorder struct {
	mu  sync.Mutex
	w   *bufio.Writer
	seq uint64
	err error
}

// NewRecorder writes the trace header and returns the recorder. The caller
// owns the underlying writer; call Flush before closing it.
func NewRecorder(w io.Writer) (*Recorder, error) {
	bw := bufio.NewWriter(w)
	hdr, err := json.Marshal(traceHeader{Format: TraceFormat, Version: TraceVersion, EventSchema: workload.EventSchemaVersion})
	if err != nil {
		return nil, err
	}
	if _, err := bw.Write(append(hdr, '\n')); err != nil {
		return nil, err
	}
	return &Recorder{w: bw}, nil
}

// Record appends one event and its decision digest to the trace.
func (r *Recorder) Record(ev workload.Event, d Digest) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.err != nil {
		return r.err
	}
	line, err := json.Marshal(TraceRecord{Seq: r.seq, Event: ev, Phi: phiBits(d.Phi), Active: d.Active, Commits: d.Commits})
	if err != nil {
		r.err = err
		return err
	}
	if _, err := r.w.Write(append(line, '\n')); err != nil {
		r.err = err
		return err
	}
	r.seq++
	return nil
}

// Recorded returns how many events have been written.
func (r *Recorder) Recorded() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.seq
}

// Flush drains the buffered writer.
func (r *Recorder) Flush() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.err != nil {
		return r.err
	}
	return r.w.Flush()
}

// Divergence describes the first decision mismatch of a replay (or a
// trace-vs-trace comparison): the sequence number, the event's virtual
// time and kind, the differing field and both values. It satisfies error.
type Divergence struct {
	Seq   uint64
	TimeS float64
	Kind  string
	Field string
	Want  string
	Got   string
}

// Error formats the divergence with seq and both Φ-style values.
func (d *Divergence) Error() string {
	return fmt.Sprintf("divergence at seq %d (t=%.6fs %s): %s recorded %s, replayed %s",
		d.Seq, d.TimeS, d.Kind, d.Field, d.Want, d.Got)
}

// reader is the shared line-at-a-time trace scanner.
type reader struct {
	sc  *bufio.Scanner
	seq uint64
	err error
}

func newReader(r io.Reader) (*reader, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("sim: empty trace")
	}
	var hdr traceHeader
	if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil {
		return nil, fmt.Errorf("sim: bad trace header: %w", err)
	}
	if hdr.Format != TraceFormat {
		return nil, fmt.Errorf("sim: not a %s file (format %q)", TraceFormat, hdr.Format)
	}
	if hdr.Version != TraceVersion {
		return nil, fmt.Errorf("sim: unsupported trace version %d (have %d)", hdr.Version, TraceVersion)
	}
	if hdr.EventSchema != workload.EventSchemaVersion {
		return nil, fmt.Errorf("sim: unsupported event schema %d (have %d)", hdr.EventSchema, workload.EventSchemaVersion)
	}
	return &reader{sc: sc}, nil
}

// next reads one body record, checking the sequence numbering and that it
// carries an event.
func (r *reader) next() (TraceRecord, bool) {
	if r.err != nil {
		return TraceRecord{}, false
	}
	if !r.sc.Scan() {
		r.err = r.sc.Err()
		return TraceRecord{}, false
	}
	var rec TraceRecord
	if err := json.Unmarshal(r.sc.Bytes(), &rec); err != nil {
		r.err = fmt.Errorf("sim: trace record %d: %w", r.seq, err)
		return TraceRecord{}, false
	}
	if rec.Seq != r.seq {
		r.err = fmt.Errorf("sim: trace record out of sequence: got %d, want %d", rec.Seq, r.seq)
		return TraceRecord{}, false
	}
	if rec.Event.Kind == 0 {
		r.err = fmt.Errorf("sim: trace record %d has no event", r.seq)
		return TraceRecord{}, false
	}
	r.seq++
	return rec, true
}

// Replayer feeds a recorded trace back through the engine as an
// EventSource and checks each retiring decision digest against the
// recording. Next and Check may run on different goroutines (the pipelined
// path's submitter and retire loop); the pending-digest queue between them
// is bounded by the scheduler's in-flight cap.
type Replayer struct {
	mu      sync.Mutex
	r       *reader
	pending []TraceRecord
	div     *Divergence
	checked uint64
}

// NewReplayer validates the trace header and returns the replayer.
func NewReplayer(rd io.Reader) (*Replayer, error) {
	r, err := newReader(rd)
	if err != nil {
		return nil, err
	}
	return &Replayer{r: r}, nil
}

// Next returns the next recorded event, queueing its digest for Check.
func (p *Replayer) Next() (workload.Event, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	rec, ok := p.r.next()
	if !ok {
		return workload.Event{}, false
	}
	p.pending = append(p.pending, rec)
	return rec.Event, true
}

// Err reports a read/decode failure.
func (p *Replayer) Err() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.r.err
}

// Check compares the replayed decision digest of the oldest in-flight
// event against the recording. Decisions retire in stream order, so the
// queue head is always the right record. Returns the divergence (also
// retained for Divergence()) or nil.
func (p *Replayer) Check(d Digest) *Divergence {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.div != nil {
		return p.div
	}
	if len(p.pending) == 0 {
		p.div = &Divergence{Seq: p.checked, Field: "length", Want: "recorded event", Got: "extra replayed decision"}
		return p.div
	}
	rec := p.pending[0]
	p.pending = p.pending[1:]
	p.checked++
	mismatch := func(field, want, got string) *Divergence {
		p.div = &Divergence{Seq: rec.Seq, TimeS: rec.Event.TimeS, Kind: rec.Event.Kind.String(),
			Field: field, Want: want, Got: got}
		return p.div
	}
	wantPhi, err := parsePhi(rec.Phi)
	if err != nil {
		return mismatch("phi", rec.Phi, phiBits(d.Phi))
	}
	if math.Float64bits(wantPhi) != math.Float64bits(d.Phi) {
		return mismatch("phi", fmt.Sprintf("%v (bits %s)", wantPhi, rec.Phi),
			fmt.Sprintf("%v (bits %s)", d.Phi, phiBits(d.Phi)))
	}
	if rec.Active != d.Active {
		return mismatch("active", strconv.Itoa(rec.Active), strconv.Itoa(d.Active))
	}
	if rec.Commits != d.Commits {
		return mismatch("commits", strconv.Itoa(rec.Commits), strconv.Itoa(d.Commits))
	}
	return nil
}

// Divergence returns the first recorded mismatch, if any.
func (p *Replayer) Divergence() *Divergence {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.div
}

// Checked returns how many decision digests have been verified.
func (p *Replayer) Checked() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.checked
}

// CompareTraces reads two traces in lockstep (O(1) memory) and returns the
// first divergence — differing event, digest, or length — or nil when byte
// -equivalent in content. The int is the number of records compared.
func CompareTraces(a, b io.Reader) (*Divergence, uint64, error) {
	ra, err := newReader(a)
	if err != nil {
		return nil, 0, fmt.Errorf("trace A: %w", err)
	}
	rb, err := newReader(b)
	if err != nil {
		return nil, 0, fmt.Errorf("trace B: %w", err)
	}
	n := uint64(0)
	for {
		reca, oka := ra.next()
		recb, okb := rb.next()
		if ra.err != nil {
			return nil, n, fmt.Errorf("trace A: %w", ra.err)
		}
		if rb.err != nil {
			return nil, n, fmt.Errorf("trace B: %w", rb.err)
		}
		if !oka || !okb {
			if oka != okb {
				d := &Divergence{Seq: n, Field: "length"}
				if oka {
					d.TimeS, d.Kind = reca.Event.TimeS, reca.Event.Kind.String()
					d.Want = fmt.Sprintf("record %d", reca.Seq)
					d.Got = "end of trace"
				} else {
					d.TimeS, d.Kind = recb.Event.TimeS, recb.Event.Kind.String()
					d.Want = "end of trace"
					d.Got = fmt.Sprintf("record %d", recb.Seq)
				}
				return d, n, nil
			}
			return nil, n, nil
		}
		if reca.Event != recb.Event {
			return &Divergence{Seq: reca.Seq, TimeS: reca.Event.TimeS, Kind: reca.Event.Kind.String(),
				Field: "event", Want: fmt.Sprintf("%+v", reca.Event), Got: fmt.Sprintf("%+v", recb.Event)}, n, nil
		}
		if reca.Phi != recb.Phi || reca.Active != recb.Active || reca.Commits != recb.Commits {
			return &Divergence{Seq: reca.Seq, TimeS: reca.Event.TimeS, Kind: reca.Event.Kind.String(),
				Field: "digest",
				Want:  fmt.Sprintf("phi=%s active=%d commits=%d", reca.Phi, reca.Active, reca.Commits),
				Got:   fmt.Sprintf("phi=%s active=%d commits=%d", recb.Phi, recb.Active, recb.Commits)}, n, nil
		}
		n++
	}
}
