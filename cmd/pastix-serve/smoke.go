package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/pastix-go/pastix"
	"github.com/pastix-go/pastix/internal/gen"
	"github.com/pastix-go/pastix/internal/service"
)

// Wire bodies for the smoke client (mirrors internal/service's JSON API).
type smokeMatrixReq struct {
	MatrixMarket string `json:"matrix_market"`
}
type smokeAnalyzeResp struct {
	Fingerprint string `json:"fingerprint"`
	Cached      bool   `json:"cached"`
	N           int    `json:"n"`
	Tasks       int    `json:"tasks"`
}
type smokeFactorizeResp struct {
	Handle         string `json:"handle"`
	AnalysisCached bool   `json:"analysis_cached"`
	Durable        bool   `json:"durable"`
}
type smokeSolveReq struct {
	Handle string    `json:"handle"`
	B      []float64 `json:"b"`
}
type smokeSolveResp struct {
	X       []float64 `json:"x"`
	Batched int       `json:"batched"`
}

// runSmoke boots the service on a random loopback port and drives the full
// serving loop against itself: analysis caching, factorization, concurrent
// solves checked bit for bit against solo solves, and the metrics exposition.
func runSmoke(cfg service.Config) error {
	s, err := service.New(cfg)
	if err != nil {
		return err
	}
	defer s.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: s.Handler()}
	go hs.Serve(ln)
	defer hs.Close()
	base := "http://" + ln.Addr().String()
	fmt.Println("serve-smoke: serving on", base)

	// A 3-D Poisson problem with a known solution.
	a := gen.Laplacian3D(8, 8, 8)
	xTrue, b := gen.RHSForSolution(a)
	var mm strings.Builder
	if err := pastix.WriteMatrixMarket(&mm, a, "serve-smoke poisson 8x8x8"); err != nil {
		return err
	}

	// Analyze; the second request for the same pattern must be a cache hit.
	var ar smokeAnalyzeResp
	if err := smokePost(base+"/v1/analyze", smokeMatrixReq{MatrixMarket: mm.String()}, &ar); err != nil {
		return fmt.Errorf("analyze: %w", err)
	}
	if ar.Cached || ar.N != a.N || ar.Tasks <= 0 {
		return fmt.Errorf("unexpected first analyze response: %+v", ar)
	}
	fmt.Printf("serve-smoke: analyzed n=%d tasks=%d fingerprint=%.8s…\n", ar.N, ar.Tasks, ar.Fingerprint)
	var ar2 smokeAnalyzeResp
	if err := smokePost(base+"/v1/analyze", smokeMatrixReq{MatrixMarket: mm.String()}, &ar2); err != nil {
		return fmt.Errorf("second analyze: %w", err)
	}
	if !ar2.Cached {
		return fmt.Errorf("second analyze of the same pattern was not served from cache")
	}
	fmt.Println("serve-smoke: second analyze served from cache")

	// Factorize against the cached analysis.
	var fr smokeFactorizeResp
	if err := smokePost(base+"/v1/factorize", smokeMatrixReq{MatrixMarket: mm.String()}, &fr); err != nil {
		return fmt.Errorf("factorize: %w", err)
	}
	if !fr.AnalysisCached || fr.Handle == "" {
		return fmt.Errorf("unexpected factorize response: %+v", fr)
	}
	fmt.Println("serve-smoke: factorized, handle", fr.Handle)

	// Concurrent solves with scaled right-hand sides: A(c·x) = c·b, so each
	// column has a known solution. How many share a batch depends on timing;
	// whichever batch a solve rides, its bits must equal the same solve made
	// alone, which the solo re-solves below check.
	const k = 4
	n := a.N
	bs := make([][]float64, k)
	for i := range bs {
		bs[i] = make([]float64, n)
		for j := range bs[i] {
			bs[i][j] = float64(i+1) * b[j]
		}
	}
	xs := make([][]float64, k)
	solErr := make([]error, k)
	batched := make([]int, k)
	var wg sync.WaitGroup
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := float64(i + 1)
			var sr smokeSolveResp
			if err := smokePost(base+"/v1/solve", smokeSolveReq{Handle: fr.Handle, B: bs[i]}, &sr); err != nil {
				solErr[i] = fmt.Errorf("solve %d: %w", i, err)
				return
			}
			xs[i], batched[i] = sr.X, sr.Batched
			for j := range sr.X {
				if math.Abs(sr.X[j]-c*xTrue[j]) > 1e-8 {
					solErr[i] = fmt.Errorf("solve %d: x[%d] = %v, want %v", i, j, sr.X[j], c*xTrue[j])
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for _, err := range solErr {
		if err != nil {
			return err
		}
	}
	fmt.Printf("serve-smoke: %d concurrent solves verified, batch sizes %v\n", k, batched)
	for i := range bs {
		var sr smokeSolveResp
		if err := smokePost(base+"/v1/solve", smokeSolveReq{Handle: fr.Handle, B: bs[i]}, &sr); err != nil {
			return fmt.Errorf("solo solve %d: %w", i, err)
		}
		if len(sr.X) != len(xs[i]) {
			return fmt.Errorf("solo solve %d: %d values, concurrent solve %d", i, len(sr.X), len(xs[i]))
		}
		for j := range sr.X {
			if sr.X[j] != xs[i][j] {
				return fmt.Errorf("solve %d: x[%d] = %x in a batch of %d, %x alone — not bit-identical",
					i, j, xs[i][j], batched[i], sr.X[j])
			}
		}
	}
	fmt.Println("serve-smoke: every concurrent answer bit-identical to its solo solve")
	if err := smokeDecodePaths(base, fr.Handle, bs[0]); err != nil {
		return err
	}

	// Scrape /metrics and assert the cache hits were counted.
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return fmt.Errorf("metrics: %w", err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	text := string(raw)
	for _, want := range []string{"pastix_cache_hits_total", "pastix_batches_total", "pastix_batched_rhs_total"} {
		if !strings.Contains(text, want) {
			return fmt.Errorf("metrics exposition missing %s", want)
		}
	}
	hits, err := smokeMetric(text, "pastix_cache_hits_total")
	if err != nil {
		return err
	}
	if hits < 1 {
		return fmt.Errorf("pastix_cache_hits_total = %g, want ≥ 1", hits)
	}
	fmt.Printf("serve-smoke: metrics ok (cache hits %g)\n", hits)

	return smokeDurable(cfg, mm.String(), b)
}

// smokeDurable drives the persist → restart → solve round trip: a durable
// service factorizes and acks, the process "dies", a fresh one replays the
// journal from the same data dir, and the old handle solves bitwise
// identically.
func smokeDurable(cfg service.Config, mm string, b []float64) error {
	dir, err := os.MkdirTemp("", "pastix-smoke-durable-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	cfg.DataDir = dir

	start := func() (*service.Server, *http.Server, string, error) {
		s, err := service.New(cfg)
		if err != nil {
			return nil, nil, "", err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			s.Close()
			return nil, nil, "", err
		}
		hs := &http.Server{Handler: s.Handler()}
		go hs.Serve(ln)
		return s, hs, "http://" + ln.Addr().String(), nil
	}

	s1, hs1, base1, err := start()
	if err != nil {
		return err
	}
	var fr smokeFactorizeResp
	if err := smokePost(base1+"/v1/factorize", smokeMatrixReq{MatrixMarket: mm}, &fr); err != nil {
		hs1.Close()
		s1.Close()
		return fmt.Errorf("durable factorize: %w", err)
	}
	if !fr.Durable {
		hs1.Close()
		s1.Close()
		return fmt.Errorf("factorize with -data-dir did not ack durable: %+v", fr)
	}
	var sr1 smokeSolveResp
	if err := smokePost(base1+"/v1/solve", smokeSolveReq{Handle: fr.Handle, B: b}, &sr1); err != nil {
		hs1.Close()
		s1.Close()
		return fmt.Errorf("pre-restart solve: %w", err)
	}
	// The process dies: listener and service close, the journal stays.
	hs1.Close()
	s1.Close()
	fmt.Println("serve-smoke: durable factorize acked, process restarted")

	s2, hs2, base2, err := start()
	if err != nil {
		return err
	}
	defer func() { hs2.Close(); s2.Close() }()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s2.WaitRecovered(ctx); err != nil {
		return fmt.Errorf("journal replay: %w", err)
	}
	var sr2 smokeSolveResp
	if err := smokePost(base2+"/v1/solve", smokeSolveReq{Handle: fr.Handle, B: b}, &sr2); err != nil {
		return fmt.Errorf("post-restart solve of replayed handle %s: %w", fr.Handle, err)
	}
	if len(sr2.X) != len(sr1.X) {
		return fmt.Errorf("post-restart solve: %d values, want %d", len(sr2.X), len(sr1.X))
	}
	for j := range sr2.X {
		if sr2.X[j] != sr1.X[j] {
			return fmt.Errorf("post-restart solve: x[%d] = %x, want %x — not bit-identical across the restart",
				j, sr2.X[j], sr1.X[j])
		}
	}
	fmt.Printf("serve-smoke: handle %s replayed from the journal, solve bit-identical\n", fr.Handle)
	return nil
}

// smokeDecodePaths sends one right-hand side twice: in the compact form
// json.Marshal writes, which the service parses in a single pass, and
// re-encoded with whitespace and upper-case exponents, which takes its
// encoding/json fallback. The two solutions must be bit-identical.
func smokeDecodePaths(base, handle string, b []float64) error {
	canonical, err := json.Marshal(smokeSolveReq{Handle: handle, B: b})
	if err != nil {
		return err
	}
	quoted, err := json.Marshal(handle)
	if err != nil {
		return err
	}
	var loose bytes.Buffer
	loose.WriteString("{\n  \"b\": [")
	for i, v := range b {
		if i > 0 {
			loose.WriteString(", ")
		}
		loose.WriteString(strconv.FormatFloat(v, 'E', -1, 64))
	}
	fmt.Fprintf(&loose, "],\n  \"handle\": %s\n}\n", quoted)
	var fast, slow smokeSolveResp
	if err := smokePostRaw(base+"/v1/solve", canonical, &fast); err != nil {
		return fmt.Errorf("canonical solve: %w", err)
	}
	if err := smokePostRaw(base+"/v1/solve", loose.Bytes(), &slow); err != nil {
		return fmt.Errorf("re-encoded solve: %w", err)
	}
	if len(fast.X) != len(b) || len(slow.X) != len(b) {
		return fmt.Errorf("decode paths: %d and %d values, want %d", len(fast.X), len(slow.X), len(b))
	}
	for j := range fast.X {
		if math.Float64bits(fast.X[j]) != math.Float64bits(slow.X[j]) {
			return fmt.Errorf("decode paths: x[%d] = %x from the canonical body, %x from the re-encoded one",
				j, fast.X[j], slow.X[j])
		}
	}
	fmt.Println("serve-smoke: canonical and re-encoded request bodies solve bit-identically")
	return nil
}

func smokePost(url string, body, into any) error {
	buf, err := json.Marshal(body)
	if err != nil {
		return err
	}
	return smokePostRaw(url, buf, into)
}

func smokePostRaw(url string, buf []byte, into any) error {
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(raw)))
	}
	return json.NewDecoder(resp.Body).Decode(into)
}

// smokeMetric reads one un-labelled sample value from Prometheus text.
func smokeMetric(text, name string) (float64, error) {
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, name+" ") {
			var v float64
			if _, err := fmt.Sscanf(line, name+" %g", &v); err != nil {
				return 0, fmt.Errorf("parse %q: %w", line, err)
			}
			return v, nil
		}
	}
	return 0, fmt.Errorf("metric %s not found", name)
}
