package solid

import (
	"bytes"
	"crypto/rand"
	"encoding/base64"
	"encoding/hex"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/simclock"
)

// Client performs authenticated Solid requests on behalf of an agent.
type Client struct {
	// HTTP is the underlying HTTP client (http.DefaultClient if nil).
	HTTP *http.Client
	// Agent is the client's WebID; empty means anonymous.
	Agent WebID
	// Key signs requests for non-anonymous agents.
	Key *cryptoutil.KeyPair
	// Clock supplies request timestamps (real clock if nil).
	Clock simclock.Clock
	// Decorate, when non-nil, can add headers to every request (used to
	// attach market payment certificates).
	Decorate func(*http.Request)
}

// NewClient builds an authenticated client.
func NewClient(agent WebID, key *cryptoutil.KeyPair, clock simclock.Clock) *Client {
	return &Client{Agent: agent, Key: key, Clock: clock}
}

func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

func (c *Client) now() time.Time {
	if c.Clock != nil {
		return c.Clock.Now()
	}
	return simclock.Real{}.Now()
}

// newNonce mints a single-use request nonce.
func newNonce() (string, error) {
	var buf [16]byte
	if _, err := rand.Read(buf[:]); err != nil {
		return "", err
	}
	return hex.EncodeToString(buf[:]), nil
}

// newRequest builds a signed request for the resource URL.
func (c *Client) newRequest(method, resourceURL string, body []byte) (*http.Request, error) {
	var reader io.Reader
	if body != nil {
		reader = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, resourceURL, reader)
	if err != nil {
		return nil, err
	}
	if c.Agent != "" {
		if c.Key == nil {
			return nil, fmt.Errorf("solid: agent %s has no signing key", c.Agent)
		}
		u, err := url.Parse(resourceURL)
		if err != nil {
			return nil, err
		}
		date := c.now().UTC().Format(time.RFC3339Nano)
		nonce, err := newNonce()
		if err != nil {
			return nil, err
		}
		sig, err := c.Key.Sign(signingString(method, u.Path, date, nonce))
		if err != nil {
			return nil, err
		}
		req.Header.Set(HeaderAgent, string(c.Agent))
		req.Header.Set(HeaderDate, date)
		req.Header.Set(HeaderNonce, nonce)
		req.Header.Set(HeaderSignature, base64.StdEncoding.EncodeToString(sig))
	}
	if c.Decorate != nil {
		c.Decorate(req)
	}
	return req, nil
}

// StatusError reports a non-2xx response.
type StatusError struct {
	Code int
	Body string
}

// Error implements error.
func (e *StatusError) Error() string {
	return fmt.Sprintf("solid: HTTP %d: %s", e.Code, e.Body)
}

// doRaw executes the request and returns the body, headers and status.
func (c *Client) doRaw(req *http.Request) ([]byte, http.Header, int, error) {
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return nil, nil, 0, err
	}
	defer resp.Body.Close()
	body, err := readSized(resp.Body, resp.ContentLength, MaxBodyBytes)
	if err != nil {
		return nil, nil, 0, err
	}
	return body, resp.Header, resp.StatusCode, nil
}

func (c *Client) do(req *http.Request) ([]byte, string, error) {
	body, header, status, err := c.doRaw(req)
	if err != nil {
		return nil, "", err
	}
	if status < 200 || status > 299 {
		return nil, "", &StatusError{Code: status, Body: string(bytes.TrimSpace(body))}
	}
	return body, header.Get("Content-Type"), nil
}

// Get retrieves a resource.
func (c *Client) Get(resourceURL string) (data []byte, contentType string, err error) {
	req, err := c.newRequest(http.MethodGet, resourceURL, nil)
	if err != nil {
		return nil, "", err
	}
	return c.do(req)
}

// Put stores a resource.
func (c *Client) Put(resourceURL, contentType string, data []byte) error {
	req, err := c.newRequest(http.MethodPut, resourceURL, data)
	if err != nil {
		return err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	_, _, err = c.do(req)
	return err
}

// Post appends data: to a container URL it creates a contained resource
// and returns its Location; to a resource URL it appends to the body and
// returns the empty string.
func (c *Client) Post(resourceURL, contentType string, data []byte) (location string, err error) {
	req, err := c.newRequest(http.MethodPost, resourceURL, data)
	if err != nil {
		return "", err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	body, header, status, err := c.doRaw(req)
	if err != nil {
		return "", err
	}
	if status < 200 || status > 299 {
		return "", &StatusError{Code: status, Body: string(bytes.TrimSpace(body))}
	}
	return header.Get("Location"), nil
}

// Delete removes a resource.
func (c *Client) Delete(resourceURL string) error {
	req, err := c.newRequest(http.MethodDelete, resourceURL, nil)
	if err != nil {
		return err
	}
	_, _, err = c.do(req)
	return err
}
