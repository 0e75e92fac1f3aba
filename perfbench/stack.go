package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"ppamcp/internal/router"
	"ppamcp/internal/serve"
)

// stack is one in-process serving stack on loopback: one or more
// ppaserved backends (serve.New with production defaults) and, for the
// fleet workload, a pparouter (router.New) in front of them. url is the
// front door every workload talks to.
type stack struct {
	url      string
	backends []string // backend base URLs as the benchmark reaches them
	servers  []*serve.Server
	router   *router.Router
	https    []*http.Server
	serving  sync.WaitGroup
	client   *http.Client
}

// bootStack starts backends ppaserved processes-in-a-goroutine with the
// given worker count (0 = serve's default, GOMAXPROCS) and, when
// withRouter is set, a router fronting them.
func bootStack(backends, workers int, withRouter bool) (*stack, error) {
	st := &stack{client: newClient()}
	var addrs []string
	for i := 0; i < backends; i++ {
		srv := serve.New(serve.Config{Workers: workers})
		addr, err := st.listen(srv.Handler())
		if err != nil {
			srv.Shutdown(context.Background())
			st.close()
			return nil, err
		}
		st.servers = append(st.servers, srv)
		addrs = append(addrs, addr)
		st.backends = append(st.backends, "http://"+addr)
	}
	st.url = st.backends[0]
	if !withRouter {
		return st, nil
	}
	// The router sees each backend under a fixed name, so ring placement
	// depends only on the workload's graphs and not on the loopback ports
	// the kernel happened to hand out. Its transport resolves the names
	// to the real listeners and otherwise matches the router's default.
	names := make([]string, len(addrs))
	for i := range addrs {
		names[i] = backendName(i)
	}
	rt, err := router.New(router.Config{Backends: names, Client: routerClient(names, addrs)})
	if err != nil {
		st.close()
		return nil, err
	}
	st.router = rt
	addr, err := st.listen(rt.Handler())
	if err != nil {
		st.close()
		return nil, err
	}
	st.url = "http://" + addr
	return st, nil
}

// backendName is the stable URL the router knows backend i by.
func backendName(i int) string { return fmt.Sprintf("http://ppaserved-%d", i) }

func (st *stack) listen(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("listen: %w", err)
	}
	hs := &http.Server{Handler: h}
	st.https = append(st.https, hs)
	st.serving.Add(1)
	go func() {
		defer st.serving.Done()
		_ = hs.Serve(ln)
	}()
	return ln.Addr().String(), nil
}

// close stops the front door first, then the backends, and waits for
// every serving goroutine to return. The listeners and their connections
// are closed outright, not drained: the stack is idle by then, and a
// drain would wait up to 5 s on any connection the router's transport
// dialed but never used.
func (st *stack) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	st.client.CloseIdleConnections()
	for i := len(st.https) - 1; i >= 0; i-- {
		_ = st.https[i].Close()
	}
	if st.router != nil {
		_ = st.router.Shutdown(ctx)
	}
	for _, s := range st.servers {
		_ = s.Shutdown(ctx)
	}
	st.serving.Wait()
}

// newClient is the benchmark's HTTP client: keep-alive connections
// reused across operations, no compression.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConns:        64,
		MaxIdleConnsPerHost: 64,
		IdleConnTimeout:     90 * time.Second,
		DisableCompression:  true,
	}}
}

// routerClient is the router's upstream client with the same pooling
// settings as its built-in default, plus a dialer that maps the stable
// backend names onto the loopback listeners.
func routerClient(names, addrs []string) *http.Client {
	byHost := make(map[string]string, len(names))
	for i, n := range names {
		byHost[strings.TrimPrefix(n, "http://")+":80"] = addrs[i]
	}
	var d net.Dialer
	return &http.Client{Transport: &http.Transport{
		MaxIdleConns:        256,
		MaxIdleConnsPerHost: 64,
		IdleConnTimeout:     90 * time.Second,
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			real, ok := byHost[addr]
			if !ok {
				return nil, errors.New("perfbench: unknown backend " + addr)
			}
			return d.DialContext(ctx, network, real)
		},
	}}
}
