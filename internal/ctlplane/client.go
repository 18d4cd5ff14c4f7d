package ctlplane

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"

	"kfi/internal/campaign"
	"kfi/internal/cli"
	"kfi/internal/inject"
)

// Client speaks the control-plane protocol to one coordinator. The zero
// value is not usable; build one with NewClient, which validates the base
// URL the same way the CLI flags do.
type Client struct {
	// Base is the coordinator's base URL (no trailing slash).
	Base string
	// HTTP is the transport; NewClient sets a dedicated client rather than
	// the ambient http.DefaultClient so tests (and the lint rule banning
	// default-client use in this package) can rely on injection.
	HTTP *http.Client
}

// NewClient validates and normalizes the coordinator URL and returns a
// client over a fresh transport.
func NewClient(base string) (*Client, error) {
	b, err := cli.ParseCoordinatorURL(base)
	if err != nil {
		return nil, err
	}
	return &Client{Base: b, HTTP: &http.Client{}}, nil
}

// apiError is a non-2xx protocol response.
type apiError struct {
	Status int
	Msg    string
}

func (e *apiError) Error() string {
	return fmt.Sprintf("coordinator: %s (HTTP %d)", e.Msg, e.Status)
}

// do runs one JSON round trip. A nil in sends an empty JSON object so every
// POST has a body; a nil out discards the response body.
func (c *Client) do(method, path string, in, out any) error {
	var body io.Reader
	if method != http.MethodGet {
		if in == nil {
			in = struct{}{}
		}
		data, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, c.Base+path, body)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.HTTP.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return decodeErr(resp)
	}
	if out == nil {
		io.Copy(io.Discard, resp.Body)
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

func decodeErr(resp *http.Response) error {
	var e struct {
		Error string `json:"error"`
	}
	data, _ := io.ReadAll(io.LimitReader(resp.Body, maxBodyBytes))
	if json.Unmarshal(data, &e) != nil || e.Error == "" {
		e.Error = string(bytes.TrimSpace(data))
	}
	return &apiError{Status: resp.StatusCode, Msg: e.Error}
}

// Submit registers a campaign (idempotent: resubmitting a spec addresses
// the existing campaign) and returns its status.
func (c *Client) Submit(spec Spec) (Status, error) {
	var st Status
	err := c.do(http.MethodPost, "/v1/campaigns", spec, &st)
	return st, err
}

// Service fetches the coordinator's full status.
func (c *Client) Service() (ServiceStatus, error) {
	var st ServiceStatus
	err := c.do(http.MethodGet, "/v1/campaigns", nil, &st)
	return st, err
}

// Status fetches one campaign's status.
func (c *Client) Status(id string) (Status, error) {
	var st Status
	err := c.do(http.MethodGet, "/v1/campaigns/"+url.PathEscape(id), nil, &st)
	return st, err
}

// Cancel cancels a campaign and returns its resulting status.
func (c *Client) Cancel(id string) (Status, error) {
	var st Status
	err := c.do(http.MethodPost, "/v1/campaigns/"+url.PathEscape(id)+"/cancel", nil, &st)
	return st, err
}

// Drain tells the coordinator to stop granting leases and returns its
// status; running workers finish their current chunks and exit on their
// next lease poll.
func (c *Client) Drain() (ServiceStatus, error) {
	var st ServiceStatus
	err := c.do(http.MethodPost, "/v1/drain", nil, &st)
	return st, err
}

// Lease requests a chunk of work.
func (c *Client) Lease(worker string) (LeaseResponse, error) {
	var resp LeaseResponse
	err := c.do(http.MethodPost, "/v1/lease", LeaseRequest{Worker: worker}, &resp)
	return resp, err
}

// Heartbeat extends a lease.
func (c *Client) Heartbeat(leaseID, worker string) (HeartbeatResponse, error) {
	var resp HeartbeatResponse
	err := c.do(http.MethodPost, "/v1/heartbeat",
		HeartbeatRequest{LeaseID: leaseID, Worker: worker}, &resp)
	return resp, err
}

// ReportError reports an unrecoverable campaign error, failing the campaign.
func (c *Client) ReportError(campaignID string, rep ErrorReport) error {
	return c.do(http.MethodPost, "/v1/campaigns/"+url.PathEscape(campaignID)+"/error", rep, nil)
}

// ReportCrash forwards one crashnet report to the coordinator's telemetry.
func (c *Client) ReportCrash(rep CrashReport) error {
	return c.do(http.MethodPost, "/v1/crash", rep, nil)
}

// StreamResults opens a chunked POST of journal-framed outcome rows for a
// leased chunk and calls produce with a send function that frames and ships
// one row. Rows hit the wire as they complete, so the coordinator journals
// progress while the chunk is still running and a worker death costs only
// the unsent remainder. Returns the coordinator's accept/duplicate summary.
func (c *Client) StreamResults(campaignID, leaseID string,
	produce func(send func(idx int, res inject.Result) error) error) (StreamSummary, error) {
	pr, pw := io.Pipe()
	produceErr := make(chan error, 1)
	go func() {
		err := produce(func(idx int, res inject.Result) error {
			payload, err := campaign.EncodeRecord(idx, res)
			if err != nil {
				return err
			}
			_, werr := pw.Write(campaign.Frame(payload))
			return werr
		})
		// Closing with the produce error tears the request body, which the
		// coordinator treats as end-of-stream: rows already sent stay
		// journaled.
		pw.CloseWithError(err)
		produceErr <- err
	}()
	target := c.Base + "/v1/campaigns/" + url.PathEscape(campaignID) +
		"/results?lease=" + url.QueryEscape(leaseID)
	req, err := http.NewRequest(http.MethodPost, target, pr)
	if err != nil {
		pr.CloseWithError(err)
		return StreamSummary{}, err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := c.HTTP.Do(req)
	if err != nil {
		<-produceErr
		return StreamSummary{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		herr := decodeErr(resp)
		<-produceErr
		return StreamSummary{}, herr
	}
	var sum StreamSummary
	if err := json.NewDecoder(resp.Body).Decode(&sum); err != nil {
		<-produceErr
		return StreamSummary{}, err
	}
	return sum, <-produceErr
}

// Results fetches a finished campaign's canonical journal and decodes it
// into its header and outcome table. RawResults returns the bytes
// themselves for byte-identity checks.
func (c *Client) Results(id string) (campaign.Header, map[int]inject.Result, error) {
	data, err := c.RawResults(id)
	if err != nil {
		return campaign.Header{}, nil, err
	}
	return campaign.ScanJournal(bytes.NewReader(data))
}

// RawResults fetches a finished campaign's canonical journal bytes.
func (c *Client) RawResults(id string) ([]byte, error) {
	req, err := http.NewRequest(http.MethodGet,
		c.Base+"/v1/campaigns/"+url.PathEscape(id)+"/results", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.HTTP.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return nil, decodeErr(resp)
	}
	return io.ReadAll(resp.Body)
}
