// Fleet log: the coordinator's durable lease ledger.
//
// A fleet coordinator fences job ownership with per-job monotone tokens: a
// write (heartbeat, checkpoint, result) is only accepted from the holder of
// the current token, so a zombie worker whose lease expired cannot corrupt a
// job that was rescheduled onto someone else. That guarantee must survive a
// coordinator restart — if the new life re-issued token 1 for a job whose
// old life already issued token 3, the old holder's delayed writes would be
// accepted again. The fleet log is the write-ahead record that prevents it:
// every token issue (and worker registration) is an fsynced CRC-framed line
// in fleet.meta, appended before the lease is granted, and recovery replays
// the log taking the maximum token per job.
//
// The log is compacted on recovery (rewritten to one line per live fact,
// atomically) so it cannot grow without bound across restarts.
package journal

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/faultinject"
)

// fleetFile is the fleet log's file name inside the spool directory.
const fleetFile = "fleet.meta"

// FleetEntry is one line of the fleet log.
type FleetEntry struct {
	// Kind is "token" (a lease token issue for Job) or "worker" (a worker
	// registration).
	Kind string `json:"kind"`
	// Job and Token record a token issue (Kind "token").
	Job   string `json:"job,omitempty"`
	Token uint64 `json:"token,omitempty"`
	// Worker records a registration (Kind "worker").
	Worker string    `json:"worker,omitempty"`
	Time   time.Time `json:"time"`
}

// FleetState is what RecoverFleet reconstructs: the highest token ever
// issued per job, and the set of registered workers.
type FleetState struct {
	Tokens  map[string]uint64
	Workers []string
}

// FleetLog appends fencing-token issues and worker registrations to the
// spool. Obtain one with Journal.Fleet. Methods are safe for concurrent use;
// the coordinator serializes grants per job by construction.
type FleetLog struct {
	j *Journal
}

// Fleet returns the journal's fleet log.
func (j *Journal) Fleet() *FleetLog { return &FleetLog{j: j} }

func (f *FleetLog) path() string { return filepath.Join(f.j.dir, fleetFile) }

// RecordToken durably records that token was issued for job. It must return
// nil before the lease carrying the token is granted — that ordering is what
// makes fencing survive a coordinator restart. Honors the "journal.fleet"
// fault point.
func (f *FleetLog) RecordToken(job string, token uint64) error {
	return f.append(FleetEntry{Kind: "token", Job: job, Token: token, Time: time.Now()})
}

// RecordWorker durably records a worker registration, so a restarted
// coordinator knows the fleet had remote capacity and holds recovered jobs
// for re-lease instead of stampeding them through the inline pool.
func (f *FleetLog) RecordWorker(id string) error {
	return f.append(FleetEntry{Kind: "worker", Worker: id, Time: time.Now()})
}

func (f *FleetLog) append(e FleetEntry) error {
	if err := faultinject.Fire("journal.fleet"); err != nil {
		f.j.noteWrite(err)
		return err
	}
	return f.j.appendRecord(f.path(), e)
}

// RecoverFleet reads the fleet log, folds it into the max token per job and
// the worker set, and compacts the file. Torn trailing lines (crash
// mid-append) and corrupt mid-file lines are dropped and counted in stats,
// matching the job meta log's corruption tolerance; a missing log is an
// empty state, not an error.
func (f *FleetLog) RecoverFleet(stats *RecoverStats) (FleetState, error) {
	st := FleetState{Tokens: map[string]uint64{}}
	workers := map[string]bool{}
	_, err := scanLog(f.path(), false, stats, func(payload []byte) bool {
		var e FleetEntry
		if json.Unmarshal(payload, &e) != nil {
			return false
		}
		switch e.Kind {
		case "token":
			if e.Token > st.Tokens[e.Job] {
				st.Tokens[e.Job] = e.Token
			}
		case "worker":
			workers[e.Worker] = true
		}
		return true
	})
	if os.IsNotExist(err) {
		return st, nil
	}
	if err != nil {
		return st, fmt.Errorf("journal: fleet log: %w", err)
	}
	for w := range workers {
		st.Workers = append(st.Workers, w)
	}
	sort.Strings(st.Workers)
	if err := f.compact(st); err != nil {
		return st, fmt.Errorf("journal: fleet log compaction: %w", err)
	}
	return st, nil
}

// compact atomically rewrites the fleet log to one line per live fact.
func (f *FleetLog) compact(st FleetState) error {
	var buf bytes.Buffer
	jobs := make([]string, 0, len(st.Tokens))
	for job := range st.Tokens {
		jobs = append(jobs, job)
	}
	sort.Strings(jobs)
	now := time.Now()
	for _, job := range jobs {
		payload, err := json.Marshal(FleetEntry{Kind: "token", Job: job, Token: st.Tokens[job], Time: now})
		if err != nil {
			return err
		}
		buf.Write(frameMetaLine(payload))
	}
	for _, w := range st.Workers {
		payload, err := json.Marshal(FleetEntry{Kind: "worker", Worker: w, Time: now})
		if err != nil {
			return err
		}
		buf.Write(frameMetaLine(payload))
	}
	return writeFileAtomic(f.path(), buf.Bytes())
}
