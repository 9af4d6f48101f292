package serve

import (
	"fmt"
	"testing"
)

// FuzzParseRequest is the differential harness for the hand-rolled fast
// parser: on any input, neither parse path may panic, and whenever BOTH
// the fast path and the encoding/json path accept a body they must
// produce identical states (the fast parser is deliberately lenient about
// a few non-JSON spellings like leading zeros, so fast-accepts-json-
// rejects is allowed; the reverse direction — json accepting a canonical
// compact body the fast parser mangles — is what this hunts). The seed
// corpus is checked in under testdata/fuzz and CI runs this target as a
// short smoke.
func FuzzParseRequest(f *testing.F) {
	seeds := []string{
		`{"now":0,"free_procs":96,"total_procs":128,"jobs":[[0,3600,4],[5,60,2,7],[9,30,1,2,11]]}`,
		`{"states":[{"now":1,"free_procs":8,"total_procs":8,"jobs":[[0,10,1]]},{"jobs":[[0,20,2]],"total_procs":16,"free_procs":0}]}`,
		`{"jobs":[],"total_procs":4,"free_procs":4}`,
		`{"now":-30.5,"queue_len":200,"scores":true,"total_procs":64,"free_procs":1,"jobs":[[-100,1e3,4]]}`,
		`{"jobs":[{"id":7,"submit_time":-30,"requested_time":3600,"requested_procs":4,"user_id":2}],"total_procs":128,"free_procs":96}`,
		`{"states":[]}`,
		`{}`,
		`{"now":}`,
		` { "now" : 5 , "jobs" : [ [ 1 , 2 , 3 ] ] , "total_procs" : 9 , "free_procs" : 2 } `,
		`[1,2,3]`,
		`garbage`,
		``,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fast := &reqBuf{}
		fastErr := fast.parseFast(data)
		slow := &reqBuf{}
		slowErr := slow.parseSlow(data)
		if fastErr != nil || slowErr != nil {
			return
		}
		if fast.batch != slow.batch {
			t.Fatalf("batch flag diverges: fast %v, slow %v", fast.batch, slow.batch)
		}
		if len(fast.states) != len(slow.states) {
			t.Fatalf("state count diverges: fast %d, slow %d", len(fast.states), len(slow.states))
		}
		for i := range fast.states {
			fs, ss := &fast.states[i], &slow.states[i]
			if fs.Now != ss.Now || fs.View != ss.View || fs.QueueLen != ss.QueueLen || fs.WantScores != ss.WantScores {
				t.Fatalf("state %d header diverges: fast %+v, slow %+v", i, fs, ss)
			}
			fStart, fEnd := fast.ranges[2*i], fast.ranges[2*i+1]
			sStart, sEnd := slow.ranges[2*i], slow.ranges[2*i+1]
			if fEnd-fStart != sEnd-sStart {
				t.Fatalf("state %d job count diverges: fast %d, slow %d", i, fEnd-fStart, sEnd-sStart)
			}
			for k := 0; k < fEnd-fStart; k++ {
				fj, sj := &fast.arena[fStart+k], &slow.arena[sStart+k]
				if fj.ID != sj.ID || fj.SubmitTime != sj.SubmitTime ||
					fj.RequestedTime != sj.RequestedTime ||
					fj.RequestedProcs != sj.RequestedProcs || fj.UserID != sj.UserID ||
					fj.StartTime != sj.StartTime || fj.EndTime != sj.EndTime {
					t.Fatalf("state %d job %d diverges: fast %+v, slow %+v", i, k, *fj, *sj)
				}
			}
		}
	})
}

// FuzzParsePlace is the same differential for /place and /migrate bodies:
// neither decode may panic, and whenever both the fast path and the
// encoding/json path accept a body they must agree on the job, the dedup
// identity (client, batch_seq) or the incumbent (from), and every posted
// cluster's header, queued jobs and completed records. Unlike the decide
// parser, the place parser is strict: it may never accept a body
// encoding/json rejects, or a 400 would turn into a placement. Every body
// is decoded both as a /place and as a /migrate request.
func FuzzParsePlace(f *testing.F) {
	seeds := []string{
		`{"client":"feed","batch_seq":7,"job":[0,3600,4,2,99],"clusters":[{"name":"a","now":5,"free_procs":8,"total_procs":16,"queue_len":3,"jobs":[[0,60,2],[1,30,1,4]],"completed":[[2,30,60]]},{"name":"b","now":5,"free_procs":0,"total_procs":8,"jobs":[]}]}`,
		`{"job":[0,60,4],"from":"a","clusters":[{"name":"a","now":0,"free_procs":4,"total_procs":8,"jobs":[[0,600,8]]}]}`,
		`{"job":[0,60,4],"clusters":[{"name":"a","total_procs":8,"free_procs":8,"completed":[]}]}`,
		" {\n\t\"job\" : [ 0 , 60 , 4 ] ,\r\"clusters\" : [ { \"name\" : \"a\" , \"jobs\" : [ ] } ] } ",
		`{"job":{"submit_time":0,"requested_time":60,"requested_procs":4},"clusters":[{"name":"a","jobs":[{"id":3,"submit_time":-5,"requested_time":9,"requested_procs":1}],"completed":[{"user_id":1,"wait":2,"run_time":3}]}]}`,
		`{"job":[0,60,4],"client":"féed","clusters":[{"name":"a","total_procs":8}]}`,
		`{"job":[0,60,4],"client":"c","batch_seq":9007199254740993,"clusters":[]}`,
		`{"job":[0,60,4],"client":"c","batch_seq":1.5,"clusters":[]}`,
		`{"job":[0,60,4],"client":"c","batch_seq":1e3,"clusters":[]}`,
		`{"job":[0,60,4],"job":[0,60,4,1,2],"clusters":[]}`,
		`{"job":[-1.5e2,0.25,3],"clusters":[{"name":"a","now":-0,"completed":[[1,-0.5,2e1]]}]}`,
		`{"job":[0,60,4],"clusters":null}`,
		`{"job":[01,60,4]}`,
		`{}`,
		``,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, migrate := range []bool{false, true} {
			fast, slow := &placeBuf{}, &placeBuf{}
			fastErr, slowErr := fast.parseFast(data, migrate), slow.parseSlow(data, migrate)
			if fastErr == nil && slowErr != nil {
				// The answer would change from 400 to a placement.
				t.Fatalf("migrate=%v fast path accepts a body encoding/json rejects: %v", migrate, slowErr)
			}
			if fastErr != nil || slowErr != nil {
				continue
			}
			if a, b := fmt.Sprintf("%+v", fast.job), fmt.Sprintf("%+v", slow.job); a != b {
				t.Fatalf("migrate=%v job diverges: fast %s, slow %s", migrate, a, b)
			}
			if fast.client != slow.client || fast.hasSeq != slow.hasSeq || fast.seq != slow.seq || fast.from != slow.from {
				t.Fatalf("migrate=%v identity diverges: fast %q/%v/%d/%q, slow %q/%v/%d/%q", migrate,
					fast.client, fast.hasSeq, fast.seq, fast.from, slow.client, slow.hasSeq, slow.seq, slow.from)
			}
			if len(fast.clusters) != len(slow.clusters) {
				t.Fatalf("migrate=%v cluster count diverges: fast %d, slow %d", migrate, len(fast.clusters), len(slow.clusters))
			}
			for i := range fast.clusters {
				fc, sc := &fast.clusters[i], &slow.clusters[i]
				if string(fc.name) != string(sc.name) || fmt.Sprint(fc.now) != fmt.Sprint(sc.now) ||
					fc.free != sc.free || fc.total != sc.total || fc.queueLen != sc.queueLen {
					t.Fatalf("migrate=%v cluster %d header diverges: fast %+v, slow %+v", migrate, i, *fc, *sc)
				}
				a := fmt.Sprintf("%+v %+v", fast.jobs[fc.jobs[0]:fc.jobs[1]], fast.done[fc.done[0]:fc.done[1]])
				b := fmt.Sprintf("%+v %+v", slow.jobs[sc.jobs[0]:sc.jobs[1]], slow.done[sc.done[0]:sc.done[1]])
				if a != b {
					t.Fatalf("migrate=%v cluster %d rows diverge:\nfast %s\nslow %s", migrate, i, a, b)
				}
			}
		}
	})
}
