package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"hitl/internal/scenario"
)

// newHTTPClient returns a client that opens at most conns connections per
// host, so a closed loop of conns clients never queues behind a dial.
func newHTTPClient(conns int) *http.Client {
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		IdleConnTimeout:     time.Minute,
	}
	return &http.Client{Transport: tr}
}

// dialByName returns an HTTP client that connects to each host:port key of
// addrs at the listener address it maps to, and to any other address as
// given. It is otherwise the default client.
func dialByName(addrs map[string]string) *http.Client {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.Proxy = nil // the names are loopback listeners
	var d net.Dialer
	tr.DialContext = func(ctx context.Context, network, addr string) (net.Conn, error) {
		if a, ok := addrs[addr]; ok {
			addr = a
		}
		return d.DialContext(ctx, network, addr)
	}
	return &http.Client{Transport: tr}
}

// caller is one client's connection to the rig: an HTTP client shared by
// all clients plus buffers of its own, reused across ops so the client
// adds little to the allocation figures.
type caller struct {
	hc  *http.Client
	buf bytes.Buffer // body of the op's main response
	aux bytes.Buffer // bodies of the op's other requests
}

// call sends one request and reads the whole response body into dst.
func (c *caller) call(method, url string, body []byte, etag string, dst *bytes.Buffer) (int, http.Header, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if etag != "" {
		req.Header.Set("If-None-Match", etag)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	dst.Reset()
	if _, err := dst.ReadFrom(resp.Body); err != nil {
		return resp.StatusCode, resp.Header, fmt.Errorf("%s %s: reading body: %w", method, url, err)
	}
	return resp.StatusCode, resp.Header, nil
}

// expect turns an unexpected status into an error naming the request.
func expect(status, want int, what string, body []byte) error {
	if status == want {
		return nil
	}
	if len(body) > 200 {
		body = body[:200]
	}
	return fmt.Errorf("%s: http %d, want %d: %s", what, status, want, bytes.TrimSpace(body))
}

// resultSum hashes the points and metrics of a result-shaped JSON body (a
// scenario run, cluster run or job result envelope), in compact form so
// the hash does not depend on indentation. It also returns the engine
// field.
func resultSum(body []byte) ([32]byte, string, error) {
	var v struct {
		Engine  string          `json:"engine"`
		Points  json.RawMessage `json:"points"`
		Metrics json.RawMessage `json:"metrics"`
	}
	if err := json.Unmarshal(body, &v); err != nil {
		return [32]byte{}, "", fmt.Errorf("decoding result: %w", err)
	}
	var pts, mets bytes.Buffer
	if err := json.Compact(&pts, v.Points); err != nil {
		return [32]byte{}, "", fmt.Errorf("result points: %w", err)
	}
	if err := json.Compact(&mets, v.Metrics); err != nil {
		return [32]byte{}, "", fmt.Errorf("result metrics: %w", err)
	}
	return sumOf(pts.Bytes(), mets.Bytes()), v.Engine, nil
}

// referenceSum hashes a directly computed result the way resultSum hashes
// a served one.
func referenceSum(res *scenario.Result) ([32]byte, error) {
	pts, err := json.Marshal(res.Points)
	if err != nil {
		return [32]byte{}, err
	}
	mets, err := json.Marshal(res.Metrics())
	if err != nil {
		return [32]byte{}, err
	}
	return sumOf(pts, mets), nil
}

func sumOf(points, metrics []byte) [32]byte {
	h := sha256.New()
	h.Write(points)
	h.Write([]byte{'|'})
	h.Write(metrics)
	var out [32]byte
	h.Sum(out[:0])
	return out
}
