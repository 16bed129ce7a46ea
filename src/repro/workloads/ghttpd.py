"""ghttpd: a small web server with a buffer overflow in its log function.

Stands in for the ghttpd GET-request vulnerability (paper section 7.1): "a
buffer overflow when processing the URL for GET requests.  The overflow
occurs in the vsprintf function when the request is written to the log."
Here the overflow is in ``log_request``'s manual copy of the URL into a
fixed-size log line.

The paper notes ghttpd's coredump "contained a corrupt call stack"; this
workload marks its dump corrupted, and goal extraction repairs it via the
call graph (``coredump.repair_stack``).
"""

from __future__ import annotations

from ..symbex import BugKind, RecordedInputs
from .base import Workload

SOURCE = """
// mini ghttpd: parse a GET request, serve it, log it

int logbuf[24];
int loglen = 0;
int served = 0;
int status = 0;

int is_space(int c) {
    if (c == ' ') { return 1; }
    if (c == 9) { return 1; }
    return 0;
}

void log_request(int *url) {
    // "GET <url>" into the fixed-size log line
    logbuf[0] = 'G';
    logbuf[1] = 'E';
    logbuf[2] = 'T';
    logbuf[3] = ' ';
    int pos = 4;
    int i = 0;
    while (url[i] != 0) {
        // BUG: no bound check against the 24-cell log buffer (the paper's
        // vsprintf overflow): a long URL writes past the end.
        logbuf[pos + i] = url[i];
        i = i + 1;
    }
    logbuf[pos + i] = 0;
    loglen = pos + i;
}

int send_response(int code) {
    status = code;
    served = served + 1;
    return code;
}

int serveconnection(int *request) {
    // method must be "GET "
    if (request[0] != 'G') { return send_response(400); }
    if (request[1] != 'E') { return send_response(400); }
    if (request[2] != 'T') { return send_response(400); }
    if (request[3] != ' ') { return send_response(400); }

    // extract the URL (up to whitespace or end of request)
    int url[40];
    int i = 0;
    while (i < 36) {
        int c = request[4 + i];
        if (c == 0) { break; }
        if (is_space(c)) { break; }
        url[i] = c;
        i = i + 1;
    }
    url[i] = 0;
    if (i == 0) { return send_response(400); }

    log_request(url);
    return send_response(200);
}

int main() {
    int *request = read_input("request", 40);
    int code = serveconnection(request);
    if (code == 200) { return 0; }
    return 1;
}
"""

# Trigger: a GET with a URL long enough (>= 20 chars) to overflow logbuf.
_LONG_URL = "GET /" + "A" * 30
WORKLOAD = Workload(
    name="ghttpd",
    source=SOURCE,
    bug_type="crash",
    expected_kind=BugKind.OUT_OF_BOUNDS,
    description="crash: buffer overflow in the request-logging function "
    "(ghttpd GET vulnerability); coredump arrives with a corrupt stack",
    trigger_inputs=RecordedInputs(
        buffers={"request": [ord(c) for c in _LONG_URL]}
    ),
    corrupt_dump=True,
    paper_seconds=7.0,
)


# -- ghttpd-hard: the same overflow behind a header-parsing plateau ----------
#
# The plain ghttpd search is almost a straight proximity descent (~70
# states), so there is nothing for a parallel frontier to shard.  The hard
# variant prefixes the request with a run of classified header characters:
# every header byte forks the state over the classifier's alternatives while
# the proximity distance barely changes -- a *distance plateau*.  Logging
# (where the overflow lives) is only enabled when some header classified as
# 'l', so the goal still constrains the plateau.  The guided search crosses
# it in ~435 states at 8 headers (plateau ties go to the shortest path); a
# breadth-first search must sweep it.  This is the distributed-search
# benchmark workload.

_HARD_HEADERS = 8

_HARD_SOURCE_TEMPLATE = """
// ghttpd-hard: header parsing creates a distance plateau before the
// overflowing log write.
int logbuf[24];
int loglen = 0;
int served = 0;
int status = 0;
int headers[%(nh)d];
int log_enabled = 0;

int is_space(int c) {
    if (c == ' ') { return 1; }
    if (c == 9) { return 1; }
    return 0;
}

int classify(int c) {
    if (c == 'a') { return 1; }
    if (c == 'c') { return 2; }
    if (c == 'k') { return 3; }
    if (c == 'l') { return 4; }
    if (c == 'u') { return 5; }
    return 0;
}

int parse_headers(int *request) {
    int i = 0;
    while (i < %(nh)d) {
        int kind = classify(request[i]);
        headers[i] = kind;
        if (kind == 4) { log_enabled = 1; }
        i = i + 1;
    }
    return i;
}

void log_request(int *url) {
    logbuf[0] = 'G';
    logbuf[1] = ' ';
    int pos = 2;
    int i = 0;
    while (url[i] != 0) {
        // BUG: no bound check against the 24-cell log buffer.
        logbuf[pos + i] = url[i];
        i = i + 1;
    }
    logbuf[pos + i] = 0;
    loglen = pos + i;
}

int send_response(int code) {
    status = code;
    served = served + 1;
    return code;
}

int serveconnection(int *request) {
    int nh = parse_headers(request);
    if (request[nh] != 'G') { return send_response(400); }
    if (request[nh + 1] != ' ') { return send_response(400); }
    int url[40];
    int i = 0;
    while (i < 36) {
        int c = request[nh + 2 + i];
        if (c == 0) { break; }
        if (is_space(c)) { break; }
        url[i] = c;
        i = i + 1;
    }
    url[i] = 0;
    if (i == 0) { return send_response(400); }
    if (log_enabled == 1) { log_request(url); }
    return send_response(200);
}

int main() {
    int *request = read_input("req", 64);
    int code = serveconnection(request);
    if (code == 200) { return 0; }
    return 1;
}
"""


def hard_workload(headers: int = _HARD_HEADERS) -> Workload:
    """Build a ghttpd-hard variant with a ``headers``-deep plateau (each
    extra header adds a few states to the guided search, and multiplies a
    breadth-first search's states by about six)."""
    trigger = "l" * headers + "G " + "/" + "A" * 25
    return Workload(
        name="ghttpd-hard" if headers == _HARD_HEADERS
        else f"ghttpd-hard{headers}",
        source=_HARD_SOURCE_TEMPLATE % {"nh": headers},
        bug_type="crash",
        expected_kind=BugKind.OUT_OF_BOUNDS,
        description="crash: the ghttpd log overflow behind a header-parsing "
        "plateau (distributed-search benchmark workload)",
        trigger_inputs=RecordedInputs(
            buffers={"req": [ord(c) for c in trigger]}
        ),
    )


GHTTPD_HARD = hard_workload()
