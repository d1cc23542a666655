#!/usr/bin/env bash
# Smoke-test the calibration daemon end to end, including crash recovery:
# start calibd on a free port with a snapshot directory, create a session
# on the toy design (plus two multi-corner ones, one selecting on the
# slow corner), apply sizing batches, read the status and the slacks,
# SIGTERM the daemon (graceful drain + snapshot), restart it on the same
# snapshot directory, and assert the resumed sessions report the same
# WNS, TNS and endpoint count in their status before any slack read,
# serve byte-identical slacks and keep their corner sets. Then apply two
# more batches, which only the session's journal records, SIGKILL the
# daemon (no drain), restart it, and assert the same of the replayed
# session; after the deletes no journal may be left.
set -euo pipefail

tmp=$(mktemp -d)
bin="$tmp/calibd"
snaps="$tmp/snapshots"
go build -o "$bin" ./cmd/calibd

start_daemon() {
    local log="$1"
    "$bin" -addr 127.0.0.1:0 -snapshots "$snaps" >"$log" 2>&1 &
    pid=$!
    addr=""
    for _ in $(seq 1 100); do
        addr=$(sed -n 's|.*listening on http://\(.*\)|\1|p' "$log")
        [ -n "$addr" ] && break
        sleep 0.1
    done
    if [ -z "$addr" ]; then
        echo "smoke_calibd: daemon address never appeared" >&2
        cat "$log" >&2
        exit 1
    fi
}

start_daemon "$tmp/calibd-1.log"
trap 'kill "$pid" 2>/dev/null || true' EXIT

created=$(curl -fsS -X POST "http://$addr/v1/sessions" \
    -d '{"id":"smoke","design":"toy"}')
case "$created" in
*'"calibrated":true'*) ;;
*)
    echo "smoke_calibd: create did not calibrate: $created" >&2
    exit 1
    ;;
esac

# Instances 225-229 are combinational gates of the (deterministic) toy
# design; low IDs are its clock tree, which the API rightly refuses to
# touch.
batch=$(curl -fsS -X POST "http://$addr/v1/sessions/smoke/batch" \
    -d '{"ops":[{"op":"upsize","instance":225},{"op":"upsize","instance":226},{"op":"upsize","instance":227},{"op":"upsize","instance":228},{"op":"upsize","instance":229}]}')
case "$batch" in
*'"applied":true'*) ;;
*)
    echo "smoke_calibd: batch applied nothing: $batch" >&2
    exit 1
    ;;
esac

# A second session carrying a two-corner set: the corner set is part of
# the session identity and must survive the snapshot/resume cycle below.
mc=$(curl -fsS -X POST "http://$addr/v1/sessions" \
    -d '{"id":"mc","design":"toy","corners":[{"name":"typ"},{"name":"slow","derate_scale":1.15,"uncertainty_ps":10}]}')
case "$mc" in
*'"calibrated":true'*) ;;
*)
    echo "smoke_calibd: multi-corner create did not calibrate: $mc" >&2
    exit 1
    ;;
esac

mcbatch=$(curl -fsS -X POST "http://$addr/v1/sessions/mc/batch" \
    -d '{"ops":[{"op":"upsize","instance":225},{"op":"upsize","instance":226}]}')
case "$mcbatch" in
*'"applied":true'*) ;;
*)
    echo "smoke_calibd: multi-corner batch applied nothing: $mcbatch" >&2
    exit 1
    ;;
esac

# A third session selecting on a non-identity corner: slow (derate scale
# 1.15, 10 ps uncertainty) first, then typ. Its weights are fitted under
# the slow config, so its slacks must survive the restart byte for byte
# just like the single-corner session's.
sc=$(curl -fsS -X POST "http://$addr/v1/sessions" \
    -d '{"id":"slowsel","design":"toy","corners":[{"name":"slow","derate_scale":1.15,"uncertainty_ps":10},{"name":"typ"}]}')
case "$sc" in
*'"calibrated":true'*) ;;
*)
    echo "smoke_calibd: slow-selection create did not calibrate: $sc" >&2
    exit 1
    ;;
esac

scbatch=$(curl -fsS -X POST "http://$addr/v1/sessions/slowsel/batch" \
    -d '{"ops":[{"op":"upsize","instance":225},{"op":"upsize","instance":226}]}')
case "$scbatch" in
*'"applied":true'*) ;;
*)
    echo "smoke_calibd: slow-selection batch applied nothing: $scbatch" >&2
    exit 1
    ;;
esac

before=$(curl -fsS "http://$addr/v1/sessions/smoke/slacks")
case "$before" in
*'"slacks_ps":['*) ;;
*)
    echo "smoke_calibd: no slack vector before restart: $before" >&2
    exit 1
    ;;
esac

scbefore=$(curl -fsS "http://$addr/v1/sessions/slowsel/slacks")

# timing STATUS: the status body's endpoint count, WNS and TNS fields.
timing() {
    printf '%s' "$1" | grep -o '"\(endpoints\|wns_ps\|tns_ps\)":[^,}]*' | tr '\n' ' '
}
statusbefore=$(timing "$(curl -fsS "http://$addr/v1/sessions/smoke")")
case "$statusbefore" in
*'"endpoints":0'* | *'"wns_ps":0 '*)
    echo "smoke_calibd: status before the restart reports no timing: $statusbefore" >&2
    exit 1
    ;;
esac

# Graceful shutdown: drain and snapshot, then make sure the process is gone.
kill -TERM "$pid"
wait "$pid" 2>/dev/null || true

start_daemon "$tmp/calibd-2.log"
trap 'kill "$pid" 2>/dev/null || true' EXIT

# The first request to the resumed session is its status: it must report
# the timing the session served before the restart without a /slacks read.
status=$(curl -fsS "http://$addr/v1/sessions/smoke")
case "$status" in
*'"applied_batches":1'*) ;;
*)
    echo "smoke_calibd: resumed session lost its batch counter: $status" >&2
    exit 1
    ;;
esac
if [ "$(timing "$status")" != "$statusbefore" ]; then
    echo "smoke_calibd: resumed status timing differs from pre-restart status" >&2
    echo "before: $statusbefore" >&2
    echo "after:  $(timing "$status")" >&2
    exit 1
fi

mcstatus=$(curl -fsS "http://$addr/v1/sessions/mc")
case "$mcstatus" in
*'"corners":["typ","slow"]'*) ;;
*)
    echo "smoke_calibd: resumed session lost its corner set: $mcstatus" >&2
    exit 1
    ;;
esac

# same_slacks SESSION BEFORE: the resumed session's /slacks body must be
# byte-identical to the one it served before the restart.
same_slacks() {
    local after
    after=$(curl -fsS "http://$addr/v1/sessions/$1/slacks")
    if [ "$2" != "$after" ]; then
        echo "smoke_calibd: $1: resumed slacks differ from pre-restart slacks" >&2
        echo "before: $(printf '%s' "$2" | head -c 300)" >&2
        echo "after:  $(printf '%s' "$after" | head -c 300)" >&2
        exit 1
    fi
}
same_slacks smoke "$before"
same_slacks slowsel "$scbefore"

# The crash leg: two more batches, downsizing 225-229 back. Each is
# journaled before its answer, so a SIGKILL (no drain, no checkpoint)
# loses neither.
for ops in '{"op":"downsize","instance":225},{"op":"downsize","instance":226},{"op":"downsize","instance":227}' \
    '{"op":"downsize","instance":228},{"op":"downsize","instance":229}'; do
    crashbatch=$(curl -fsS -X POST "http://$addr/v1/sessions/smoke/batch" -d "{\"ops\":[$ops]}")
    case "$crashbatch" in
    *'"applied":true'*) ;;
    *)
        echo "smoke_calibd: crash-leg batch applied nothing: $crashbatch" >&2
        exit 1
        ;;
    esac
done
# The journal's 12-byte header alone would mean the batches were not
# journaled.
if [ ! -s "$snaps/smoke.journal" ] || [ "$(wc -c <"$snaps/smoke.journal")" -le 12 ]; then
    echo "smoke_calibd: no journal records beside the smoke session's checkpoint" >&2
    ls -l "$snaps" >&2
    exit 1
fi
crashslacks=$(curl -fsS "http://$addr/v1/sessions/smoke/slacks")
crashstatus=$(timing "$(curl -fsS "http://$addr/v1/sessions/smoke")")

# The shell reports the SIGKILL on stderr; it is the point, not news.
{
    kill -KILL "$pid"
    wait "$pid"
} 2>/dev/null || true

start_daemon "$tmp/calibd-after-kill.log"
trap 'kill "$pid" 2>/dev/null || true' EXIT

status=$(curl -fsS "http://$addr/v1/sessions/smoke")
case "$status" in
*'"applied_batches":3'*) ;;
*)
    echo "smoke_calibd: session replayed after SIGKILL lost batches: $status" >&2
    exit 1
    ;;
esac
if [ "$(timing "$status")" != "$crashstatus" ]; then
    echo "smoke_calibd: replayed status timing differs from the one before SIGKILL" >&2
    echo "before: $crashstatus" >&2
    echo "after:  $(timing "$status")" >&2
    exit 1
fi
same_slacks smoke "$crashslacks"

curl -fsS -X DELETE "http://$addr/v1/sessions/smoke" >/dev/null
curl -fsS -X DELETE "http://$addr/v1/sessions/mc" >/dev/null
curl -fsS -X DELETE "http://$addr/v1/sessions/slowsel" >/dev/null
left=$(find "$snaps" -name '*.journal')
if [ -n "$left" ]; then
    echo "smoke_calibd: journals left after the deletes: $left" >&2
    exit 1
fi

kill -TERM "$pid" 2>/dev/null || true
wait "$pid" 2>/dev/null || true
rm -rf "$tmp"

echo "smoke_calibd: ok (resumed status timing and slacks identical across SIGTERM and SIGKILL restarts, slow selection corner included; corner set preserved; no journal left after delete)"
