package scheduler

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"iscope/internal/checkpoint"
	"iscope/internal/rng"
	"iscope/internal/scheduler/testgrid"
	"iscope/internal/units"
	"iscope/internal/workload"
)

var update = flag.Bool("update", false, "regenerate golden digest files")

// digestSnapInstant is the fixed virtual instant both golden runs take
// their snapshot at: the snapshot holds the queue after every event at
// or before it has fired. At this instant the batch run's queue holds a
// repair and a false-pass re-profile besides arrivals and ticks.
const digestSnapInstant = units.Seconds(890 * 60)

// streamLead is how far ahead of its submit the streaming run injects
// a job, so arrivals are pending beside ticks and completions.
const streamLead = units.Seconds(60 * 60)

// digestLog collects named SHA-256 digests in a fixed order.
type digestLog struct{ buf bytes.Buffer }

func (d *digestLog) add(name string, data []byte) {
	sum := sha256.Sum256(data)
	fmt.Fprintf(&d.buf, "%s %s\n", name, hex.EncodeToString(sum[:]))
}

// TestCheckpointDigestsGolden pins checkpoint and Result bytes across
// commits: SHA-256 digests of a snapshot at a fixed virtual instant,
// of every periodic checkpoint, of the final Result JSON and of the
// Result resumed from that snapshot, for two small fixed runs, compared
// against testdata/checkpoint_digests.golden. The equivalence grids
// compare two paths of one build; this file is the only test that
// notices when a change moves a byte. Regenerate with
//
//	go test ./internal/scheduler -run TestCheckpointDigestsGolden -update
//
// only for a change that is meant to alter results or the snapshot
// format, and say so where the change is recorded.
func TestCheckpointDigestsGolden(t *testing.T) {
	fleet := testFleet(t, 32)
	jobs := testJobs(t, 51, 120, 0.3)
	w := testWind(t, fleet, 52)
	var log digestLog

	// A batch run with the trace pre-loaded and every event source the
	// snapshot format carries: wind and rebalance ticks, periodic
	// checkpoint ticks, the dense fault plan (crashes, repairs and
	// false-pass re-profiles with their payloads) and hostile sensors.
	batch := RunConfig{
		Seed:            3,
		Jobs:            jobs,
		Wind:            w,
		EnableRebalance: true,
		Faults:          testgrid.DenseFaults(),
		Telemetry:       testgrid.HostileTelemetry(7),
	}
	t.Run("batch", func(t *testing.T) {
		sch, _ := SchemeByName("ScanFair")
		col := &snapCollector{}
		cfg := batch
		cfg.Checkpoint = &CheckpointConfig{Every: units.Hours(3), Sink: col.sink}
		st, err := NewStepper(fleet, sch, cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		st.Seal()
		batchTo(t, st, digestSnapInstant)
		snap, err := st.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		requirePendingKinds(t, snap, tagArrival, tagWindTick, tagCheckpoint, tagCompletion, tagFaultEvent, tagTelemetry, tagRepaired, tagReprofiled)
		batchTo(t, st, units.Seconds(1e18))
		want := resultJSON(t, st)
		if len(col.snaps) < 2 {
			t.Fatalf("want several periodic checkpoints, got %d", len(col.snaps))
		}

		reCol := &snapCollector{}
		re := cfg
		re.Resume = snap
		re.Checkpoint = &CheckpointConfig{Every: units.Hours(3), Sink: reCol.sink}
		rs, err := NewStepper(fleet, sch, re)
		if err != nil {
			t.Fatal(err)
		}
		defer rs.Close()
		rs.Seal()
		batchTo(t, rs, units.Seconds(1e18))
		got := resultJSON(t, rs)
		if !bytes.Equal(want, got) {
			t.Fatal("the run resumed from the snapshot ended with a different Result")
		}
		if len(reCol.snaps) == 0 {
			t.Fatal("the resumed run emitted no periodic checkpoints")
		}

		log.add("batch/snapshot", snap)
		for i, c := range col.snaps {
			log.add(fmt.Sprintf("batch/checkpoint-%d", i+1), c)
		}
		for i, c := range reCol.snaps {
			log.add(fmt.Sprintf("batch/resumed-checkpoint-%d", i+1), c)
		}
		log.add("batch/result", want)
		log.add("batch/resumed", got)
	})

	// A streaming run: no trace, every job fed through InjectJob once
	// the clock has fired everything up to streamLead before its
	// submit, so each arrival enters a queue that already holds later
	// ticks and completions.
	stream := RunConfig{Seed: 4, Wind: w, Telemetry: testgrid.HostileTelemetry(8)}
	t.Run("stream", func(t *testing.T) {
		sch, _ := SchemeByName("ScanEffi")
		st, err := NewStepper(fleet, sch, stream)
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		next := feed(t, st, jobs.Jobs, digestSnapInstant)
		batchTo(t, st, digestSnapInstant)
		snap, err := st.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		requirePendingKinds(t, snap, tagArrival, tagWindTick, tagCompletion, tagTelemetry)
		feed(t, st, jobs.Jobs[next:], units.Seconds(1e18))
		st.Seal()
		batchTo(t, st, units.Seconds(1e18))
		want := resultJSON(t, st)

		re := stream
		re.Resume = snap
		rs, err := NewStepper(fleet, sch, re)
		if err != nil {
			t.Fatal(err)
		}
		defer rs.Close()
		feed(t, rs, jobs.Jobs[next:], units.Seconds(1e18))
		rs.Seal()
		batchTo(t, rs, units.Seconds(1e18))
		got := resultJSON(t, rs)
		if !bytes.Equal(want, got) {
			t.Fatal("the stream resumed from the snapshot ended with a different Result")
		}

		log.add("stream/snapshot", snap)
		log.add("stream/result", want)
		log.add("stream/resumed", got)
	})

	if t.Failed() {
		return
	}
	path := filepath.Join("testdata", "checkpoint_digests.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, log.buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file %s — regenerate with: go test ./internal/scheduler -run TestCheckpointDigestsGolden -update (%v)", path, err)
	}
	if got := log.buf.Bytes(); !bytes.Equal(got, want) {
		t.Fatalf("checkpoint or Result bytes moved.\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// batchTo fires same-timestamp batches until the run finishes or the
// next event lies past limit.
func batchTo(t *testing.T, st *Stepper, limit units.Seconds) {
	t.Helper()
	for !st.Finished() {
		at, ok := st.PeekNextEventTime()
		if !ok || at > limit {
			return
		}
		if _, err := st.ProcessEventBatch(); err != nil {
			t.Fatal(err)
		}
	}
}

// feed injects jobs in submit order while their submit lies within
// streamLead of limit, first firing every event more than streamLead
// before each job's submit. It returns the number injected.
func feed(t *testing.T, st *Stepper, jobs []workload.Job, limit units.Seconds) int {
	t.Helper()
	for i, j := range jobs {
		if j.Submit-streamLead > limit {
			return i
		}
		for {
			at, ok := st.PeekNextEventTime()
			if !ok || at >= j.Submit-streamLead {
				break
			}
			if _, err := st.ProcessEventBatch(); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := st.InjectJob(j.Submit, j); err != nil {
			t.Fatal(err)
		}
	}
	return len(jobs)
}

func resultJSON(t *testing.T, st *Stepper) []byte {
	t.Helper()
	res, err := st.Result()
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// requirePendingKinds fails unless the snapshot's queue holds at least
// one event of every listed kind, so the digests cover them.
func requirePendingKinds(t *testing.T, data []byte, kinds ...tagKind) {
	t.Helper()
	var snap runSnapshot
	if err := checkpoint.Decode(data, &snap); err != nil {
		t.Fatal(err)
	}
	seen := map[tagKind]bool{}
	for _, ev := range snap.Events {
		if ev.Tag.Kind == tagReprofiled && ev.Tag.FPDrift == 0 {
			t.Fatalf("re-profile event at t=%v carries no false-pass payload", ev.At)
		}
		seen[ev.Tag.Kind] = true
	}
	for _, k := range kinds {
		if !seen[k] {
			t.Errorf("snapshot at t=%v holds no pending event of kind %d (%d events)", snap.Now, k, len(snap.Events))
		}
	}
}

// jobLineV4 is the fmt oracle for appendJob: the job section as format
// v4 wrote it, "%d,%v,%v,%v,%v,%v|" with units.Seconds.String's formats
// of that version spelled out.
func jobLineV4(j *workload.Job) string {
	sec := func(s units.Seconds) string {
		switch {
		case s >= 86400:
			return fmt.Sprintf("%.2f d", float64(s)/86400)
		case s >= 3600:
			return fmt.Sprintf("%.2f h", float64(s)/3600)
		case s >= 60:
			return fmt.Sprintf("%.1f min", float64(s)/60)
		default:
			return fmt.Sprintf("%.1f s", float64(s))
		}
	}
	return fmt.Sprintf("%d,%s,%s,%v,%v,%s|", j.ID, sec(j.Submit), sec(j.Runtime), j.Procs, j.Boundness, sec(j.Deadline))
}

// TestConfigHashJobWriterMatchesFmt checks the config hash's strconv
// job writer byte for byte against the fmt oracle, over random jobs and
// the display boundaries of every time field.
func TestConfigHashJobWriterMatchesFmt(t *testing.T) {
	times := []units.Seconds{0, 0.04, 0.05, 59.9, 59.95, 59.99999, 60, 60.05, 3599.99, 3600, 3617,
		86399.9999, 86400, 1e7, 1e18, -1, -59.95, units.Seconds(math.Inf(1))}
	fracs := []float64{0, 1, 0.5, 1.0 / 3, 1e-7, 0.1 + 0.2, 1e21}
	r := rng.New(17, 3)
	var buf []byte
	check := func(j workload.Job) {
		t.Helper()
		buf = appendJob(buf[:0], &j)
		if got, want := string(buf), jobLineV4(&j); got != want {
			t.Fatalf("job %+v: writer %q, fmt %q", j, got, want)
		}
	}
	for _, s := range times {
		check(workload.Job{ID: 1, Submit: s, Runtime: s, Procs: 2, Boundness: 0.5, Deadline: s})
	}
	for _, b := range fracs {
		check(workload.Job{ID: -3, Submit: 10, Runtime: 20, Procs: 1, Boundness: b})
	}
	for i := 0; i < 20000; i++ {
		pick := func() units.Seconds {
			if r.IntN(4) == 0 {
				return times[r.IntN(len(times))]
			}
			return units.Seconds(r.Uniform(0, 3*86400))
		}
		check(workload.Job{ID: r.IntN(1 << 30), Submit: pick(), Runtime: pick(), Procs: 1 + r.IntN(4096),
			Boundness: r.Uniform(0, 1), Deadline: pick()})
	}
}
