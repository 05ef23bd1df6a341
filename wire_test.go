package cata

import (
	"bytes"
	"encoding/json"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"cata/internal/exp"
	"cata/internal/jobs"
	"cata/internal/opensys"
	"cata/internal/sim"
	"cata/internal/workloads"
)

// resultRenames maps each harness field that does not reach the public
// result under its own name to the field it feeds; "" excludes it.
var resultRenames = map[string]string{
	// The spec is echoed to catad clients as JobOutcome.Config.
	"Spec":              "",
	"StaticBinding":     "StaticBindingEvents",
	"LockWaitMax":       "MaxLockWait",
	"DriverLockWaitMax": "MaxLockWait",
}

// TestResultCoversMeasurement: every field of the harness's result
// types reaches the public result types — under its own name or the
// one resultRenames gives it — and every public field is fed by one,
// so a measurement added to the harness cannot silently stay private.
func TestResultCoversMeasurement(t *testing.T) {
	for _, pair := range [][2]reflect.Type{
		{reflect.TypeFor[exp.Measurement](), reflect.TypeFor[Result]()},
		{reflect.TypeFor[opensys.Report](), reflect.TypeFor[OpenResult]()},
		{reflect.TypeFor[opensys.WindowReport](), reflect.TypeFor[OpenWindow]()},
	} {
		src, dst := pair[0], pair[1]
		fed := map[string]bool{}
		for i := range src.NumField() {
			name := src.Field(i).Name
			if to, ok := resultRenames[name]; ok {
				if to == "" {
					continue
				}
				name = to
			}
			if _, ok := dst.FieldByName(name); !ok {
				t.Errorf("%v.%s has no field in %v; add one (and to toResult) or list it in resultRenames",
					src, src.Field(i).Name, dst)
			}
			fed[name] = true
		}
		for i := range dst.NumField() {
			if !fed[dst.Field(i).Name] {
				t.Errorf("%v.%s is fed by no field of %v", dst, dst.Field(i).Name, src)
			}
		}
	}
}

// TestToResultCarriesEveryField: a measurement with every field set
// converts to a result with every field set, so toResult forgets
// nothing the drift test says it should carry.
func TestToResultCarriesEveryField(t *testing.T) {
	var m exp.Measurement
	n := 0
	fillNonZero(reflect.ValueOf(&m).Elem(), &n, "Spec")
	assertNonZero(t, "Result", reflect.ValueOf(toResult(m)))
}

// fillNonZero sets every exported field reachable from v to a distinct
// non-zero value — pointers allocated, slices given one element —
// skipping the named top-level fields. Integers are scaled so that
// picosecond times stay non-zero in nanoseconds.
func fillNonZero(v reflect.Value, n *int, skip ...string) {
	*n++
	switch v.Kind() {
	case reflect.Struct:
		for i := range v.NumField() {
			f := v.Type().Field(i)
			if f.IsExported() && !slices.Contains(skip, f.Name) {
				fillNonZero(v.Field(i), n)
			}
		}
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fillNonZero(v.Elem(), n)
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 1, 1))
		fillNonZero(v.Index(0), n)
	case reflect.Int, reflect.Int64:
		v.SetInt(int64(*n) * 1_000_000)
	case reflect.Float64:
		v.SetFloat(float64(*n) + 0.5)
	case reflect.String:
		v.SetString("s")
	case reflect.Bool:
		v.SetBool(true)
	}
}

// assertNonZero fails for every zero field reachable from v that
// travels on the wire (fields tagged json:"-" are skipped).
func assertNonZero(t *testing.T, path string, v reflect.Value) {
	t.Helper()
	switch v.Kind() {
	case reflect.Struct:
		if v.Type() == reflect.TypeFor[time.Time]() {
			break
		}
		for i := range v.NumField() {
			f := v.Type().Field(i)
			if f.IsExported() && f.Tag.Get("json") != "-" {
				assertNonZero(t, path+"."+f.Name, v.Field(i))
			}
		}
		return
	case reflect.Pointer:
		if !v.IsNil() {
			assertNonZero(t, path, v.Elem())
			return
		}
	case reflect.Slice:
		for i := range v.Len() {
			assertNonZero(t, path+"[]", v.Index(i))
		}
		if v.Len() > 0 {
			return
		}
	}
	if v.IsZero() {
		t.Errorf("%s is zero", path)
	}
}

// wireCase is one encode → decode → compare round trip over a wire
// type: the value is encoded, decoded back with unknown fields
// rejected (every key the encoder writes must be one the decoder
// knows), compared with the original, and re-encoded to the same
// bytes. full additionally requires every wire field of the value to
// be set, so the case exercises each omitempty key.
type wireCase[T any] struct {
	name  string
	value T
	full  bool
}

// run executes the round trip as a subtest.
func (c wireCase[T]) run(t *testing.T) {
	t.Run(c.name, func(t *testing.T) {
		if c.full {
			assertNonZero(t, c.name, reflect.ValueOf(c.value))
		}
		b, err := json.Marshal(c.value)
		if err != nil {
			t.Fatal(err)
		}
		var out T
		if err := decodeStrict(b, &out); err != nil {
			t.Fatalf("decoding %s: %v", b, err)
		}
		if !reflect.DeepEqual(c.value, out) {
			t.Fatalf("round trip changed the value:\nin  %+v\nout %+v", c.value, out)
		}
		again, err := json.Marshal(out)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b, again) {
			t.Fatalf("re-encoding drifted:\nfirst  %s\nsecond %s", b, again)
		}
	})
}

// decodeStrict decodes one JSON value, rejecting unknown fields as
// catad's request decoder does.
func decodeStrict(b []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// TestWireRoundTrip runs every type that crosses the catad wire or the
// result cache through the same encode → decode → compare suite.
func TestWireRoundTrip(t *testing.T) {
	cfg := RunConfig{
		Workload: "layered:width=6,depth=8", Policy: "CATS+BL:theta=0.8",
		FastCores: 8, Cores: 16, Seed: 7, Scale: 0.5,
		TransitionLatency: 25 * time.Microsecond,
		Arrivals:          "poisson:lambda=2000,jobs=20",
		Trace:             true, TimelineWidth: 80,
	}
	closed, err := Run(RunConfig{Workload: "swaptions", Policy: PolicyCATA, FastCores: 4, Cores: 8, Scale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	open, err := Run(RunConfig{Workload: "forkjoin:width=4,phases=2,dur=50", Policy: PolicyCATARSU,
		FastCores: 4, Cores: 8, Arrivals: "poisson:lambda=2000,jobs=20,deadline=5ms,window=5ms"})
	if err != nil {
		t.Fatal(err)
	}
	if open.Open == nil || len(open.Open.Windows) == 0 {
		t.Fatalf("open run reported no windows: %+v", open.Open)
	}
	var m exp.Measurement
	n := 0
	fillNonZero(reflect.ValueOf(&m).Elem(), &n, "Spec")
	full := toResult(m)
	m.Spec = exp.RunSpec{
		Workload: "dedup", Policy: exp.CATARSU, FastCores: 24, Cores: 32, Seed: 7, Scale: 0.5,
		MaxSimTime: 20 * sim.Second, TransitionLatency: 25 * sim.Microsecond,
		Arrivals: "fixed:interval=500us,jobs=4",
	}
	at := time.Date(2026, 1, 2, 3, 4, 5, 6, time.UTC)

	wireCase[RunConfig]{"RunConfig", cfg, true}.run(t)
	wireCase[MatrixConfig]{"MatrixConfig", MatrixConfig{
		Policies: []Policy{PolicyCATA, "AMTHA:tiebreak=spread"}, FastCores: []int{8, 16},
		Workloads: []string{"dedup", "layered:width=6"}, Cores: 32, Seeds: []uint64{1, 2}, Scale: 0.25,
	}, true}.run(t)
	wireCase[Result]{"Result/closed", closed, false}.run(t)
	wireCase[Result]{"Result/open", open, false}.run(t)
	wireCase[Result]{"Result/every-field", full, true}.run(t)
	wireCase[ServiceResult]{"ServiceResult", ServiceResult{
		Results: []JobOutcome{
			{Config: cfg, Cached: true, Result: &closed},
			{Config: RunConfig{Workload: "trace:file=missing.json", Policy: PolicyFIFO}, Error: "no such file"},
		},
		Cached: 1, Failed: 1,
	}, false}.run(t)
	wireCase[JobEvent]{"JobEvent/state", JobEvent{Seq: 3, Time: at, Type: jobs.EventState,
		State: JobFailed, Error: "boom"}, false}.run(t)
	wireCase[JobEvent]{"JobEvent/progress", JobEvent{Seq: 2, Time: at, Type: jobs.EventProgress,
		Progress: &JobProgress{Done: 2, Total: 4, Cached: 1, Failed: 1, Spec: "dedup/CATA/fast=8",
			ElapsedMS: 12, ETAMS: 30, Note: "best EDP"}}, false}.run(t)
	wireCase[[]PolicyInfo]{"PolicyInfo", PolicyDocs(), false}.run(t)
	wireCase[[]WorkloadInfo]{"WorkloadInfo", Workloads(), false}.run(t)
	wireCase[ServiceHealth]{"ServiceHealth", ServiceHealth{Status: "draining", Queued: 1, Running: 2,
		Jobs: 5, Workers: 2, QueueDepth: 16}, true}.run(t)
	wireCase[exp.RunSpec]{"exp.RunSpec", m.Spec, true}.run(t)
	wireCase[exp.Measurement]{"exp.Measurement", m, true}.run(t)
}

// TestJobStatusWireCompatible: the bytes catad writes for a job — the
// manager's jobs.Status[json.RawMessage], result payload embedded as
// recorded — decode into the client's JobStatus with unknown fields
// rejected, and re-encoding the decoded status reproduces them byte for
// byte: sending the raw payload is indistinguishable from decoding and
// re-encoding it.
func TestJobStatusWireCompatible(t *testing.T) {
	res, err := Run(RunConfig{Workload: "swaptions", Policy: PolicyCATA, FastCores: 4, Cores: 8, Scale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	payload := ServiceResult{Results: []JobOutcome{{Config: RunConfig{Workload: "swaptions <&>",
		Policy: PolicyCATA, FastCores: 4, Cores: 8, Scale: 0.05}, Result: &res}}}
	raw, err := json.Marshal(payload)
	if err != nil {
		t.Fatal(err)
	}
	at := time.Date(2026, 1, 2, 3, 4, 5, 6, time.UTC)
	server := jobs.Status[json.RawMessage]{
		ID: "j1", Kind: "run", Label: "swaptions/CATA/fast=4", State: jobs.Succeeded,
		Submitted: at, Started: at.Add(time.Millisecond), Finished: at.Add(2 * time.Millisecond),
		Events: 3, Result: raw,
	}
	// catad's writeJSON: an indenting encoder.
	encode := func(v any) []byte {
		var b bytes.Buffer
		enc := json.NewEncoder(&b)
		enc.SetIndent("", "  ")
		if err := enc.Encode(v); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	body := encode(server)
	var client JobStatus
	if err := decodeStrict(body, &client); err != nil {
		t.Fatalf("decoding %s: %v", body, err)
	}
	want := JobStatus{
		ID: server.ID, Kind: server.Kind, Label: server.Label, State: JobSucceeded,
		Submitted: server.Submitted, Started: server.Started, Finished: server.Finished,
		Events: server.Events, Result: &payload,
	}
	if !reflect.DeepEqual(client, want) {
		t.Fatalf("decoded status:\ngot  %+v\nwant %+v", client, want)
	}
	if again := encode(client); !bytes.Equal(body, again) {
		t.Fatalf("raw and re-encoded bodies differ:\nraw\n%s\nre-encoded\n%s", body, again)
	}
	if !strings.Contains(string(body), `"result": {`) {
		t.Fatalf("result payload not embedded as an object:\n%s", body)
	}
}

// FuzzRunConfigJSON: catad's request body decoder. Any body that
// decodes into a RunConfig re-encodes to a fixed point — decoding the
// re-encoding and encoding again changes nothing — and admission-style
// validation of the decoded config never panics.
func FuzzRunConfigJSON(f *testing.F) {
	for _, s := range []string{
		`{}`,
		`{"workload":"dedup","policy":"cata+rsu","fast_cores":8}`,
		`{"workload":"layered:width=6,depth=8","policy":"CATS+BL:theta=0.8","cores":16,"seed":7,"scale":0.5}`,
		`{"workload":"forkjoin","arrivals":"poisson:lambda=2000,jobs=20,deadline=5ms","trace":true}`,
		`{"workload":"trace:file=x.json","transition_latency_ns":25000,"timeline_width":80}`,
		`{"policy":"AMTHA:tiebreak=spread","scale":-0}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var cfg RunConfig
		if decodeStrict(body, &cfg) != nil {
			return
		}
		_, _ = workloads.Canonicalize(cfg.Workload)
		_ = ValidatePolicy(string(cfg.Policy))
		_ = ValidateArrivals(cfg.Arrivals)
		_, _ = cfg.spec()

		once, err := json.Marshal(cfg)
		if err != nil {
			t.Fatalf("re-encoding %+v: %v", cfg, err)
		}
		var back RunConfig
		if err := decodeStrict(once, &back); err != nil {
			t.Fatalf("decoding the re-encoding %s: %v", once, err)
		}
		// Decoding canonicalizes the policy; the zero policy encodes
		// as its meaning, FIFO. Nothing else may change.
		if cfg.Policy == "" {
			cfg.Policy = PolicyFIFO
		}
		if !reflect.DeepEqual(cfg, back) {
			t.Fatalf("round trip changed the config:\nin  %+v\nout %+v", cfg, back)
		}
		twice, err := json.Marshal(back)
		if err != nil || !bytes.Equal(once, twice) {
			t.Fatalf("encoding is not a fixed point:\nonce  %s\ntwice %s (%v)", once, twice, err)
		}
	})
}
