package serve

import (
	"bytes"
	"fmt"
	"net/http"
	"os"
	"regexp"
	"sort"
	"sync"
	"testing"
)

// The fast /place and /migrate decoder must be invisible: every body the
// endpoint tests post answers byte-identically whether it is decoded on
// the fast path or forced onto encoding/json, and the canonical compact
// body a cluster agent sends must actually take the fast path — a silent
// fallback would keep every answer right and lose the speed unnoticed.

// placeExchange is one /place or /migrate request and its answer.
type placeExchange struct {
	path string
	body []byte
	code int
	resp []byte
}

// exchangeTape records /place and /migrate exchanges while on.
type exchangeTape struct {
	mu  sync.Mutex
	on  bool
	log []placeExchange
}

// placeTape is the tape postJSON records onto (TestPlaceDecodeParity).
var placeTape exchangeTape

func (tp *exchangeTape) record(ex placeExchange) {
	tp.mu.Lock()
	defer tp.mu.Unlock()
	if tp.on {
		tp.log = append(tp.log, ex)
	}
}

// play runs fn with the tape on and returns what it recorded.
func (tp *exchangeTape) play(fn func()) []placeExchange {
	tp.mu.Lock()
	tp.on, tp.log = true, nil
	tp.mu.Unlock()
	fn()
	tp.mu.Lock()
	defer tp.mu.Unlock()
	tp.on = false
	return tp.log
}

// placeParityTests are the endpoint tests whose /place and /migrate
// exchanges TestPlaceDecodeParity replays in both decode modes. exact
// compares the full exchange sequence; the concurrent test's order and
// mid-reload answers vary from run to run, so only its multiset of
// (path, body, status) is compared.
var placeParityTests = []struct {
	name  string
	fn    func(*testing.T)
	exact bool
}{
	{"TestPlaceEndpoint", TestPlaceEndpoint, true},
	{"TestPlaceRouterVariants", TestPlaceRouterVariants, true},
	{"TestPlaceValidation", TestPlaceValidation, true},
	{"TestMigrateEndpoint", TestMigrateEndpoint, true},
	{"TestMigrateValidation", TestMigrateValidation, true},
	{"TestFleetConfigValidation", TestFleetConfigValidation, true},
	{"TestDecideShardRouting", TestDecideShardRouting, true},
	{"TestFleetMetricsExported", TestFleetMetricsExported, true},
	{"TestConcurrentPlaceDecideReload", TestConcurrentPlaceDecideReload, false},
	{"TestPlaceFairnessSteering", TestPlaceFairnessSteering, true},
	{"TestFairnessMetricsView", TestFairnessMetricsView, true},
	{"TestFairnessValidation", TestFairnessValidation, true},
	{"TestPlaceBatchSeqDedup", TestPlaceBatchSeqDedup, true},
	{"TestCrashRestore", TestCrashRestore, true},
	{"TestWALTruncationProperty", TestWALTruncationProperty, true},
	{"TestSnapshotGuards", TestSnapshotGuards, true},
	{"TestDrainEndpoint", TestDrainEndpoint, true},
	{"TestMigrateDrained", TestMigrateDrained, true},
	{"TestPoisonedWALSurfaces", TestPoisonedWALSurfaces, true},
	{"TestPlaceBatchSeqExact", TestPlaceBatchSeqExact, true},
}

// tempPath matches the per-run checkpoint directory inside a WAL error.
var tempPath = regexp.MustCompile(`/[^\s"]*/(wal-\d+\.log)`)

func TestPlaceDecodeParity(t *testing.T) {
	// Every test in the three endpoint test files takes part, so a new
	// test's bodies cannot slip past the parity check.
	listed := map[string]bool{}
	for _, tc := range placeParityTests {
		listed[tc.name] = true
	}
	testFunc := regexp.MustCompile(`(?m)^func (Test\w+)\(t \*testing\.T\)`)
	for _, file := range []string{"fleet_test.go", "fairness_test.go", "durable_test.go"} {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range testFunc.FindAllSubmatch(src, -1) {
			if !listed[string(m[1])] {
				t.Errorf("%s: %s is missing from placeParityTests", file, m[1])
			}
		}
	}

	defer forcePlaceJSON.Store(false)
	for _, tc := range placeParityTests {
		run := func(slow bool) []placeExchange {
			forcePlaceJSON.Store(slow)
			return placeTape.play(func() {
				t.Run(fmt.Sprintf("%s/json=%v", tc.name, slow), tc.fn)
			})
		}
		fast, slow := run(false), run(true)
		if !tc.exact {
			fast, slow = sortedRequests(fast), sortedRequests(slow)
		}
		if len(fast) != len(slow) {
			t.Fatalf("%s: %d exchanges on the fast path, %d on encoding/json", tc.name, len(fast), len(slow))
		}
		for i := range fast {
			f, s := fast[i], slow[i]
			if !tc.exact {
				f.resp, s.resp = nil, nil
			}
			f.resp = tempPath.ReplaceAll(f.resp, []byte("<dir>/$1"))
			s.resp = tempPath.ReplaceAll(s.resp, []byte("<dir>/$1"))
			if f.path != s.path || !bytes.Equal(f.body, s.body) || f.code != s.code || !bytes.Equal(f.resp, s.resp) {
				t.Errorf("%s exchange %d (%s %s) diverges:\nfast %d %s\njson %d %s",
					tc.name, i, f.path, f.body, f.code, f.resp, s.code, s.resp)
			}
		}
	}
}

// sortedRequests drops the answers and orders the exchanges by request.
func sortedRequests(log []placeExchange) []placeExchange {
	out := append([]placeExchange(nil), log...)
	sort.Slice(out, func(i, j int) bool {
		if c := bytes.Compare(out[i].body, out[j].body); c != 0 {
			return c < 0
		}
		return out[i].path+fmt.Sprint(out[i].code) < out[j].path+fmt.Sprint(out[j].code)
	})
	return out
}

// TestPlaceWALParity: the WAL records of a batch sequence are
// byte-identical whichever decoder read the bodies.
func TestPlaceWALParity(t *testing.T) {
	bodies := [][]byte{
		placeBodySeq(t, `[0, 600, 1, 3]`, "feed", 1,
			fairClusterState("a", 64, 64, `[7, 9000, 60], [7, 9100.5, 60]`),
			fairClusterState("b", 64, 64, `[3, 12, 600]`)),
		placeBodySeq(t, `[0, 600, 1, 3]`, "feed", 1, // a retry: deduped
			fairClusterState("a", 64, 64, `[7, 9000, 60], [7, 9100.5, 60]`),
			fairClusterState("b", 64, 64, "")),
		placeBody(t, `[0, 600, 1, 3]`,
			fairClusterState("a", 64, 64, ""),
			fairClusterState("b", 64, 64, `[-0, 0, 1e3]`)),
	}
	wal := func(slow bool) []byte {
		forcePlaceJSON.Store(slow)
		defer forcePlaceJSON.Store(false)
		dir := t.TempDir()
		srv, ts := newTestServer(t, durableConfig(dir))
		for i, b := range bodies {
			if code, out := postJSON(t, ts.URL+"/place", b); code != http.StatusOK {
				t.Fatalf("json=%v body %d: %d %s", slow, i, code, out)
			}
		}
		srv.durable.mu.Lock()
		defer srv.durable.mu.Unlock()
		raw, err := os.ReadFile(segPath(dir, srv.durable.seg))
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	fast, slow := wal(false), wal(true)
	if len(fast) == 0 || !bytes.Equal(fast, slow) {
		t.Fatalf("WAL bytes differ:\nfast %q\njson %q", fast, slow)
	}
}
