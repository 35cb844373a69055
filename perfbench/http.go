package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptrace"
	"strings"
	"sync"
	"time"
)

// server is one in-process HTTP server on a loopback port.
type server struct {
	srv  *http.Server
	url  string
	done chan struct{}
}

func startServer(h http.Handler) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{srv: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		s.srv.Serve(ln)
	}()
	return s, nil
}

// stop closes the listener and every connection and waits for Serve to
// return.
func (s *server) stop() {
	if s == nil {
		return
	}
	s.srv.Close()
	<-s.done
}

// mixQueries is the load generator's default query mix — stats 4,
// preview 2, time-resolved 1, records 3 — with the kinds interleaved.
var mixQueries = []string{
	"/stats?bins=16", "/preview.svg?view=preview&bins=16", "/records?count=1",
	"/stats?bins=16", "/stats?timeresolved=1&bins=16", "/records?count=1",
	"/stats?bins=16", "/preview.svg?view=preview&bins=16", "/records?count=1",
	"/stats?bins=16",
}

// queryKind names a query endpoint the way the load mix does; "" for
// anything else.
func queryKind(r *http.Request) string {
	switch p := r.URL.Path; {
	case strings.HasSuffix(p, "/stats"):
		if r.URL.Query().Get("timeresolved") == "1" {
			return "timeresolved"
		}
		return "stats"
	case strings.HasSuffix(p, "/preview.svg"):
		return "preview"
	case strings.HasSuffix(p, "/records"):
		return "records"
	}
	return ""
}

// traceHandler wraps a server of the given layer ("shard", "tracesvc")
// so that, while tracing, every query it serves is a span. A request
// that arrives on a connection a traced client opened becomes that
// client span's child; any other starts a new request under
// fallback().
func (e *env) traceHandler(layer string, h http.Handler, fallback func() uint64) http.Handler {
	if e.tr == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		kind := queryKind(r)
		if !e.tracing() || kind == "" {
			h.ServeHTTP(w, r)
			return
		}
		var id uint64
		if parent := e.tr.connParent(r.RemoteAddr); parent != 0 {
			id = e.tr.begin(layer+"."+kind, parent)
		} else {
			id = e.tr.beginRequest(layer+"."+kind, fallback())
		}
		ctx, unlink := e.linkConns(r.Context(), id)
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		t0 := time.Now()
		h.ServeHTTP(sw, r.WithContext(ctx))
		if sw.code == http.StatusOK {
			e.sample(layer+"."+kind, time.Since(t0))
		}
		e.tr.end(id)
		unlink()
		e.add(layer+".queries", 1)
	})
}

// statusWriter remembers the status a handler answered with.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// linkConns makes every outgoing request made with the returned context
// register its connection under span id, so the server on the other end
// can parent its span to it. unlink drops the registrations once those
// requests are done.
func (e *env) linkConns(ctx context.Context, id uint64) (_ context.Context, unlink func()) {
	if id == 0 {
		return ctx, func() {}
	}
	var mu sync.Mutex
	var addrs []string
	ctx = httptrace.WithClientTrace(ctx, &httptrace.ClientTrace{
		GotConn: func(info httptrace.GotConnInfo) {
			a := info.Conn.LocalAddr().String()
			e.tr.linkConn(a, id)
			mu.Lock()
			addrs = append(addrs, a)
			mu.Unlock()
		},
	})
	return ctx, func() {
		mu.Lock()
		defer mu.Unlock()
		e.tr.unlinkConns(addrs)
	}
}

// get fetches url and returns the body of a 200 response.
func get(ctx context.Context, c *http.Client, url string) ([]byte, error) {
	return do(ctx, c, "GET", url, nil, http.StatusOK)
}

// do sends one request and returns the body, or an error naming the
// status when it is not want.
func do(ctx context.Context, c *http.Client, method, url string, body []byte, want int) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		rd = strings.NewReader(string(body))
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != want {
		return b, &statusError{resp.StatusCode, method + " " + url, strings.TrimSpace(string(b))}
	}
	return b, nil
}

type statusError struct {
	code      int
	what, msg string
}

func (e *statusError) Error() string { return fmt.Sprintf("%s: %d %s", e.what, e.code, e.msg) }

// isStatus reports whether err is an HTTP answer with the given status.
func isStatus(err error, code int) bool {
	var se *statusError
	return errors.As(err, &se) && se.code == code
}
