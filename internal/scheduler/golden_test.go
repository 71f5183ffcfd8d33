package scheduler

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"iscope/internal/checkpoint"
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
		requirePendingKinds(t, snap, len(jobs.Jobs), tagWindTick, tagCheckpoint, tagCompletion, tagFaultEvent, tagTelemetry, tagRepaired, tagReprofiled)
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
		for i, c := range reCol.snaps {
			if j := len(col.snaps) - len(reCol.snaps) + i; j < 0 || !bytes.Equal(c, col.snaps[j]) {
				t.Errorf("the resumed run's checkpoint %d differs from the uninterrupted run's at the same instant", i+1)
			}
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
		requirePendingKinds(t, snap, 0, tagArrival, tagWindTick, tagCompletion, tagTelemetry)
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
// one event of every listed kind, and, for a run over a trace of that
// many jobs, a trace cursor strictly inside it, so the digests cover
// them.
func requirePendingKinds(t *testing.T, data []byte, trace int, kinds ...tagKind) {
	t.Helper()
	var snap runSnapshot
	if err := checkpoint.Decode(data, &snap); err != nil {
		t.Fatal(err)
	}
	if trace > 0 && (snap.TraceNext <= 0 || snap.TraceNext >= trace) {
		t.Errorf("snapshot at t=%v has trace cursor %d, want one strictly inside the %d-job trace", snap.Now, snap.TraceNext, trace)
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
