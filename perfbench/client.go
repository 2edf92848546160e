package main

import (
	"bufio"
	"fmt"
	"hash/fnv"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"smartsra/internal/clf"
)

// liveReq is one request of the replayed schedule.
type liveReq struct {
	user, uri, referer string
}

// sample is the client-side outcome of one request.
type sample struct {
	latency time.Duration // send until the response is read
	status  int           // 0 on a transport error or timeout
}

// closedLoop sends reqs to addr as fast as the server answers: senders
// goroutines, each with its own keep-alive connection, send their share of
// the requests back to back. A user's requests always go through the same
// sender, in schedule order. Requests are written and read inline on the
// sender's goroutine, without net/http's client machinery, so the client
// adds as little as possible to the time it measures.
func closedLoop(addr string, reqs []liveReq, senders int) []sample {
	out := make([]sample, len(reqs))
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			c := &rawClient{addr: addr}
			defer c.close()
			for i := range reqs {
				if senderOf(reqs[i].user, senders) != s {
					continue
				}
				sent := time.Now()
				out[i].status = c.get(&reqs[i])
				out[i].latency = time.Since(sent)
			}
		}(s)
	}
	wg.Wait()
	return out
}

func senderOf(user string, senders int) int {
	h := fnv.New32a()
	h.Write([]byte(user))
	return int(h.Sum32() % uint32(senders))
}

// rawClient is one HTTP/1.1 keep-alive connection.
type rawClient struct {
	addr string
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
}

// get requests r.uri as the simulated user and drains the body. It returns
// the status, or 0 on a transport error or timeout (after which the next
// request dials a fresh connection).
func (c *rawClient) get(r *liveReq) int {
	if c.conn == nil {
		conn, err := net.DialTimeout("tcp", c.addr, 5*time.Second)
		if err != nil {
			return 0
		}
		c.conn, c.br, c.bw = conn, bufio.NewReader(conn), bufio.NewWriter(conn)
	}
	c.conn.SetDeadline(time.Now().Add(5 * time.Second))
	fmt.Fprintf(c.bw, "GET %s HTTP/1.1\r\nHost: %s\r\nX-Forwarded-For: %s\r\nUser-Agent: perfbench/1\r\n", r.uri, c.addr, r.user)
	if r.referer != clf.NoField && r.referer != "" {
		fmt.Fprintf(c.bw, "Referer: %s\r\n", r.referer)
	}
	c.bw.WriteString("\r\n")
	status := 0
	if err := c.bw.Flush(); err == nil {
		if resp, err := http.ReadResponse(c.br, nil); err == nil {
			_, err = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if err == nil {
				status = resp.StatusCode
			}
		}
	}
	if status == 0 {
		c.close()
	}
	return status
}

func (c *rawClient) close() {
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
	}
}

// outcome classifies responses the way serve's accounting does.
type outcome struct {
	sent, accepted, shed, rejected, errors int
}

func classify(samples []sample) outcome {
	var o outcome
	for _, s := range samples {
		o.sent++
		switch {
		case s.status == http.StatusServiceUnavailable:
			o.shed++
		case s.status == http.StatusTooManyRequests:
			o.rejected++
		case s.status >= 200 && s.status < 300 || s.status == http.StatusFound:
			o.accepted++
		default:
			o.errors++
		}
	}
	return o
}
