package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"rlsched/internal/nn"
	"rlsched/internal/serve"
	"rlsched/internal/sim"
)

// daemonDefaults is serve.Config as cmd/rlservd builds it from its flag
// defaults: 200µs batch window, GOMAXPROCS workers, max batch 64, 30s
// checkpoint interval, SLO monitoring off. Workloads change only the
// settings they name.
func daemonDefaults() serve.Config {
	return serve.Config{
		BatchWindow:        200 * time.Microsecond,
		Workers:            0,
		MaxBatch:           64,
		MigrateMargin:      0.25,
		CheckpointInterval: 30 * time.Second,
		SLO:                serve.SLOConfig{Window: 30 * time.Second, HealthzLevel: 2},
	}
}

// kernelEngine is a kernel policy network with fixed-seed weights over the
// daemon's 128-job observation window.
func kernelEngine(seed int64) (*serve.PolicyEngine, error) {
	pol, err := nn.NewPolicy(rand.New(rand.NewSource(seed)), "kernel", sim.DefaultMaxObserve, sim.JobFeatures)
	if err != nil {
		return nil, err
	}
	return serve.NewPolicyEngine(pol)
}

// daemon is one in-process rlservd: the serve.Server behind a real HTTP
// server on a loopback port.
type daemon struct {
	srv  *serve.Server
	hs   *http.Server
	url  string
	done chan struct{}
}

// startDaemon builds the server, listens, and returns once /healthz
// answers (the set-up a user waits for before the first request).
func startDaemon(cfg serve.Config, wrap func(http.Handler) http.Handler) (*daemon, error) {
	srv, err := serve.NewServer(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	h := srv.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	d := &daemon{srv: srv, hs: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(d.done)
		d.hs.Serve(ln)
	}()
	c := &http.Client{Timeout: 5 * time.Second}
	defer c.CloseIdleConnections()
	for i := 0; ; i++ {
		resp, err := c.Get(d.url + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
			err = fmt.Errorf("healthz status %d", resp.StatusCode)
		}
		if i == 100 {
			d.stop()
			return nil, fmt.Errorf("daemon never became healthy: %w", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop closes the HTTP server, waits for it, then closes the daemon
// (batcher drain and, with a checkpoint dir, the final snapshot).
func (d *daemon) stop() {
	d.hs.Close()
	<-d.done
	d.srv.Close()
}

// newClient is one closed-loop client connection: requests are sent one
// at a time, each after the previous answer arrived.
func newClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true, IdleConnTimeout: time.Minute},
		Timeout:   30 * time.Second,
	}
}

// post sends one POST and reads the whole answer into buf.
func post(c *http.Client, url string, body []byte, req int64, buf *bytes.Buffer) (int, error) {
	r, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	r.Header.Set("Content-Type", "application/json")
	r.Header.Set(reqHeader, strconv.FormatInt(req, 10))
	resp, err := c.Do(r)
	if err != nil {
		return 0, err
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, err
}

// httpFloor measures ref.http_floor_ms: the median round trip of the same
// client against a handler that only reads the body and answers "ok", with
// the given request bodies.
func httpFloor(bodies [][]byte, n int) (measured, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return measured{}, err
	}
	hs := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		w.Write([]byte("{\"ok\":true}\n"))
	})}
	done := make(chan struct{})
	go func() {
		defer close(done)
		hs.Serve(ln)
	}()
	defer func() {
		hs.Close()
		<-done
	}()
	c := newClient()
	defer c.CloseIdleConnections()
	url := "http://" + ln.Addr().String() + "/"
	var buf bytes.Buffer
	lat := make([]float64, 0, n)
	for i := 0; i < n+n/10; i++ {
		t0 := time.Now()
		if _, err := post(c, url, bodies[i%len(bodies)], int64(i), &buf); err != nil {
			return measured{}, err
		}
		if i >= n/10 { // the first tenth warms the connection
			lat = append(lat, float64(time.Since(t0))/1e6)
		}
	}
	return measured{median(lat), "ms", len(lat)}, nil
}

// fsyncProbe measures the disk under the run directory: n appends of a
// WAL-record-sized block, each followed by fsync. Returns p50 and p99.
func fsyncProbe(dir string, n int) (p50, p99 measured, err error) {
	f, err := os.OpenFile(filepath.Join(dir, "fsync-probe"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return p50, p99, err
	}
	defer os.Remove(f.Name())
	defer f.Close()
	block := bytes.Repeat([]byte{'x'}, 512)
	lat := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		if _, err := f.Write(block); err != nil {
			return p50, p99, err
		}
		t0 := time.Now()
		if err := f.Sync(); err != nil {
			return p50, p99, err
		}
		lat = append(lat, float64(time.Since(t0))/1e6)
	}
	return measured{quantile(lat, 0.5), "ms", n}, measured{quantile(lat, 0.99), "ms", n}, nil
}

// references adds ref.http_floor_ms and the fsync probe to a traced run.
func references(rep *report, dir string, bodies [][]byte) error {
	floor, err := httpFloor(bodies, 1000)
	if err != nil {
		return fmt.Errorf("http floor: %w", err)
	}
	rep.layer["ref.http_floor_ms"] = floor
	p50, p99, err := fsyncProbe(dir, 200)
	if err != nil {
		return fmt.Errorf("fsync probe: %w", err)
	}
	rep.layer["ref.fsync_ms"] = p50
	rep.layer["ref.fsync_p99_ms"] = p99
	return nil
}
