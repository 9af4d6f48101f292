package serve

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"rlsched/internal/job"
)

// Negative-path coverage for the hand-rolled fast parser guarding the
// public decision endpoint: empty queues, oversized payloads, truncated
// and garbage JSON. Each case is checked twice — once against the parser
// unit (does it bail to the encoding/json fallback cleanly, leaving no
// partial state behind?) and once through the HTTP surface (is the
// request rejected with the right status?).

// TestParseFastBailsClean: bodies the fast parser cannot handle must
// return errFastParse with every partially parsed buffer reset, so the
// encoding/json fallback starts from a clean slate.
func TestParseFastBailsClean(t *testing.T) {
	bail := []struct {
		name string
		body string
	}{
		{"empty body", ``},
		{"garbage bytes", "\x00\xff\xfe{"},
		{"not an object", `[1,2,3]`},
		{"truncated mid-key", `{"now`},
		{"truncated mid-number", `{"now":12`}, // number at EOF parses; missing } bails
		{"truncated mid-jobs", `{"now":0,"free_procs":1,"total_procs":8,"jobs":[[0,60`}, // unclosed row
		{"truncated batch", `{"states":[{"now":0,"jobs":[[0,60,2]]}`},
		{"string value", `{"now":"zero","jobs":[[0,60,2]]}`},
		{"escaped key", `{"n\ow":0}`},
		{"empty batch", `{"states":[]}`}, // legal JSON; only the fallback accepts it
		{"unknown key", `{"nope":1}`},
		{"object job row", `{"jobs":[{"submit_time":0}]}`},
		{"six-field job row", `{"jobs":[[0,60,2,1,7,9]]}`},
		{"trailing garbage", `{"now":0,"jobs":[[0,60,2]]}x`},
		{"boolean typo", `{"scores":ture,"jobs":[[0,60,2]]}`},
	}
	for _, tc := range bail {
		t.Run(tc.name, func(t *testing.T) {
			rb := &reqBuf{}
			// Seed some stale-looking state via a successful parse first,
			// so a dirty bail would be visible.
			if err := rb.parseFast([]byte(`{"now":1,"free_procs":2,"total_procs":8,"jobs":[[0,60,2]]}`)); err != nil {
				t.Fatalf("canonical body failed the fast parse: %v", err)
			}
			rb.reset()
			if err := rb.parseFast([]byte(tc.body)); err != errFastParse {
				t.Fatalf("parseFast(%q) = %v, want errFastParse", tc.body, err)
			}
			if len(rb.states) != 0 || len(rb.arena) != 0 || len(rb.ranges) != 0 || rb.batch {
				t.Fatalf("bail left partial state: %d states, %d arena jobs, batch=%v",
					len(rb.states), len(rb.arena), rb.batch)
			}
		})
	}
}

// TestParseFastAcceptsEdgeShapes: shapes that are canonical but easy to
// get wrong in a hand-rolled parser.
func TestParseFastAcceptsEdgeShapes(t *testing.T) {
	accept := []struct {
		name   string
		body   string
		states int
		jobs   int
	}{
		{"empty object state", `{}`, 1, 0},
		{"empty jobs array", `{"now":0,"free_procs":1,"total_procs":8,"jobs":[]}`, 1, 0},
		{"whitespace everywhere", " {\n\t\"now\" : 3.5 ,\r\"jobs\" : [ [ 0 , 60 , 2 ] ] } ", 1, 1},
		{"negative and float numbers", `{"now":-12.5,"jobs":[[-3600,1e3,2,-1,12]]}`, 1, 1},
		{"batch of two", `{"states":[{"jobs":[[0,60,2]]},{"jobs":[[0,90,4],[1,30,1]]}]}`, 2, 3},
	}
	for _, tc := range accept {
		t.Run(tc.name, func(t *testing.T) {
			rb := &reqBuf{}
			if err := rb.parseFast([]byte(tc.body)); err != nil {
				t.Fatalf("parseFast(%q) = %v, want success", tc.body, err)
			}
			if len(rb.states) != tc.states || len(rb.arena) != tc.jobs {
				t.Fatalf("parsed %d states / %d jobs, want %d / %d",
					len(rb.states), len(rb.arena), tc.states, tc.jobs)
			}
		})
	}
}

// TestDecideNegativePaths drives the same failure classes end-to-end:
// whatever path a body takes (fast parse, fallback, validation, size
// caps), the endpoint must answer 4xx — never 200, never a hang or panic.
func TestDecideNegativePaths(t *testing.T) {
	_, ts := newTestServer(t, Config{
		PolicyName:          "SJF",
		MaxBodyBytes:        4 << 10,
		MaxStatesPerRequest: 8,
	})
	cases := []struct {
		name string
		body []byte
		code int
	}{
		{"empty body", nil, 400},
		{"garbage bytes", []byte("\x00\xff\xfe{"), 400},
		{"truncated json", []byte(`{"now":0,"jobs":[[0,60,2]`), 400},
		{"empty queue", []byte(`{"now":0,"free_procs":4,"total_procs":8,"jobs":[]}`), 400},
		{"empty batch", []byte(`{"states":[]}`), 400},
		{"empty state in batch", []byte(`{"states":[{"jobs":[[0,60,2]],"total_procs":8,"free_procs":4},{"jobs":[]}]}`), 400},
		{"six-field job row", []byte(`{"now":0,"free_procs":4,"total_procs":8,"jobs":[[0,60,2,1,7,9]]}`), 400},
		{"oversized queue (states cap)", oversizedStates(t, 9), 400},
		{"oversized body (byte cap)", bytes.Repeat([]byte("x"), 5<<10), 413},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, out := postJSON(t, ts.URL+"/v1/decide", tc.body)
			if code != tc.code {
				t.Fatalf("got %d (%s), want %d", code, out, tc.code)
			}
			if !bytes.Contains(out, []byte(`"error"`)) {
				t.Fatalf("rejection must carry an error message: %s", out)
			}
		})
	}
	// The daemon must still answer correctly after the abuse.
	code, out := postJSON(t, ts.URL+"/v1/decide",
		[]byte(`{"now":0,"free_procs":4,"total_procs":8,"jobs":[[0,60,2]]}`))
	if code != 200 || !strings.Contains(string(out), `"pick":0`) {
		t.Fatalf("healthy request after abuse: %d %s", code, out)
	}
}

func oversizedStates(t *testing.T, n int) []byte {
	t.Helper()
	states := testStates(t, n, 2)
	return EncodeStates(states)
}

// TestParsePlaceFastAcceptsCanonical: the canonical compact /place body —
// client, batch_seq, a compact job, clusters with compact jobs and
// completed rows — and the /migrate body must take the fast path, decoded
// field for field. The parity tests would stay green on a silent
// fallback; this one would not.
func TestParsePlaceFastAcceptsCanonical(t *testing.T) {
	body := []byte(`{"client":"feed","batch_seq":999999999999999,"job":[7200,3600,16,3,1001],` +
		`"clusters":[{"name":"c0","now":7200.5,"free_procs":100,"total_procs":256,"queue_len":40,` +
		`"jobs":[[100,600,8,2],[900,7200,64,5,77]],"completed":[[3,120,3600],[5,0,60]]},` +
		`{"name":"c1","now":7200,"free_procs":0,"total_procs":64,"jobs":[]}]}`)
	pb := &placeBuf{}
	if err := pb.parseFast(body, false); err != nil {
		t.Fatalf("canonical /place body fell back: %v", err)
	}
	wantJob := job.Job{ID: 1001, SubmitTime: 7200, RequestedTime: 3600, RequestedProcs: 16, UserID: 3, StartTime: -1, EndTime: -1}
	if !reflect.DeepEqual(pb.job, wantJob) || pb.client != "feed" || !pb.hasSeq || pb.seq != 999_999_999_999_999 {
		t.Fatalf("identity decoded as job %+v client %q seq %v/%d", pb.job, pb.client, pb.hasSeq, pb.seq)
	}
	if len(pb.clusters) != 2 {
		t.Fatalf("decoded %d clusters, want 2", len(pb.clusters))
	}
	c0, c1 := pb.clusters[0], pb.clusters[1]
	if string(c0.name) != "c0" || c0.now != 7200.5 || c0.free != 100 || c0.total != 256 || c0.queueLen != 40 ||
		string(c1.name) != "c1" || c1.free != 0 || c1.total != 64 {
		t.Fatalf("cluster headers decoded as %+v / %+v", c0, c1)
	}
	if c0.jobs != [2]int{0, 2} || c1.jobs != [2]int{2, 2} || c0.done != [2]int{0, 2} || c1.done != [2]int{2, 2} {
		t.Fatalf("arena ranges: c0 jobs %v done %v, c1 jobs %v done %v", c0.jobs, c0.done, c1.jobs, c1.done)
	}
	if j := pb.jobs[1]; j.ID != 77 || j.UserID != 5 || j.RequestedProcs != 64 || j.RequestedTime != 7200 {
		t.Fatalf("queued job decoded as %+v", j)
	}
	if d := pb.done[0]; d != (wireDone{UserID: 3, Wait: 120, Run: 3600}) {
		t.Fatalf("completed record decoded as %+v", d)
	}

	mig := []byte(`{"job":[0,600,32],"from":"large","clusters":[{"name":"large","now":0,"free_procs":0,"total_procs":256,"jobs":[[0,30000,128]]}]}`)
	if err := pb.parseFast(mig, true); err != nil || pb.from != "large" || len(pb.jobs) != 1 {
		t.Fatalf("canonical /migrate body: err %v, from %q, %d jobs", err, pb.from, len(pb.jobs))
	}

	// A batch_seq past 15 digits, a fraction or an exponent belongs to
	// encoding/json, which decodes it exactly or rejects it.
	for _, seq := range []string{"9007199254740993", "1.5", "1e3", "01"} {
		b := []byte(`{"client":"c","batch_seq":` + seq + `,"job":[0,60,4],"clusters":[]}`)
		if err := pb.parseFast(b, false); err != errFastParse {
			t.Errorf("batch_seq %s: parseFast = %v, want errFastParse", seq, err)
		}
		if pb.hasSeq || len(pb.clusters) != 0 {
			t.Errorf("batch_seq %s: bail left partial state", seq)
		}
	}
}

// TestFastNumberMatchesParseFloat: the parser's exact-arithmetic number
// path must return ParseFloat's bits for every token it accepts, and
// accept exactly the tokens of JSON's number grammar.
func TestFastNumberMatchesParseFloat(t *testing.T) {
	tokens := []string{
		"0", "-0", "0.0", "-0.0", "1", "-1", "7200", "1.234567e+06", "-1.234567e+06",
		"9.99999999999999e+14", "123456789012345", "1234567890123456", "9007199254740993",
		"0.1", "0.3", "1e22", "1e23", "1e-22", "1e-23", "4.5e15", "1.7976931348623157e308",
		"5e-324", "0.000001", "123.456e-3", "1E+2", "2e0", "1e0001", "1e-0001", "3.0e+10000",
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 20000; i++ {
		v := math.Float64frombits(rng.Uint64())
		if math.IsNaN(v) || math.IsInf(v, 0) {
			continue
		}
		tokens = append(tokens,
			strconv.FormatFloat(v, 'g', -1, 64),
			strconv.FormatFloat(math.Round(rng.NormFloat64()*1e7), 'g', -1, 64),
			strconv.FormatFloat(rng.NormFloat64()*1e3, 'f', rng.Intn(8), 64),
			strconv.FormatFloat(rng.ExpFloat64(), 'e', rng.Intn(17), 64))
	}
	for _, tok := range tokens {
		p := &fastParser{b: []byte(tok)}
		got, ok := p.number()
		want, err := strconv.ParseFloat(tok, 64)
		if err != nil {
			if ok && p.i == len(tok) {
				t.Errorf("number(%q) = %v, want a bail (ParseFloat: %v)", tok, got, err)
			}
			continue
		}
		if !ok || p.i != len(tok) || math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("number(%q) = %v (ok %v, consumed %d), want %v", tok, got, ok, p.i, want)
		}
	}
	for _, bad := range []string{"01", "+1", ".5", "1.", "1e", "1e+", "-", "--1", "0x10", "1_000"} {
		p := &fastParser{b: []byte(bad)}
		if _, ok := p.number(); ok && p.i == len(bad) {
			t.Errorf("number(%q) accepted a token outside JSON's grammar", bad)
		}
	}
}
