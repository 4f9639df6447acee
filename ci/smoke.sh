#!/usr/bin/env bash
# End-to-end smokes of the paper's pipeline through the real commands:
# trafficgen renders traffic with known injected anomalies and ingestd,
# the online monitor, must flag the injected bins and attribute the
# injected flows. Run it from anywhere in the repository:
#
#   bash ci/smoke.sh
#
# It takes no flags, builds the commands once into a temporary directory
# that it removes on exit, and stops at the first failing smoke, naming
# it and printing that smoke's output.
set -euo pipefail

cd "$(dirname "$0")/.."
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
go build -trimpath -o "$work/" ./cmd/trafficgen ./cmd/ingestd
PATH=$work:$PATH
cd "$work"

# run runs one smoke in its own directory, in a subshell under errexit
# and xtrace. When the smoke fails it prints the trace, whose last
# command is the one that failed, and every output file the smoke wrote.
# The subshell's EXIT trap stops an ingestd a failed smoke left running.
run() {
	printf '%-14s ' "$1"
	mkdir "$1"
	set +e
	(cd "$1"; set -ex; trap 'kill $(jobs -p) 2>/dev/null || true' EXIT; "$1") > "$1/trace" 2>&1
	local status=$?
	set -e
	if [ "$status" -ne 0 ]; then
		echo "FAIL (exit $status)"
		tail -n +1 "$1/trace" "$1"/*.out 2>/dev/null || true
		exit 1
	fi
	echo ok
}

# listening waits for ingestd's "listening on tcp <addr>" line in the
# file $1 and prints the address, so the TCP smokes need no fixed port.
listening() {
	local addr
	for _ in $(seq 100); do
		addr=$(sed -n 's/^ingestd: listening on tcp //p' "$1")
		if [ -n "$addr" ]; then
			echo "$addr"
			return
		fi
		sleep 0.2
	done
	return 1
}

# Abilene's binary frame: a 4-byte bin header and 41 float64 links,
# after the 12-byte stream header.
frame=$((4 + 8 * 41))

# inputs renders the seed weeks and streams that several smokes share.
in=$work/inputs
inputs() {
	trafficgen -seed 5 -bins 1008 -links week5.csv
	trafficgen -seed 5 -bins 1152 -format binary -skip 1008 -links spike.bin -anomaly "30,1090,9e7"
	trafficgen -seed 5 -bins 1008 -format binary -links week.bin
	trafficgen -seed 5 -bins 1100 -format binary -links full.bin -anomaly "24,1099,9e7"
	trafficgen -seed 11 -bins 1008 -format binary -links week11.bin
	trafficgen -seed 11 -bins 1152 -format binary -scenario synflood -skip 1008 -links synflood.bin
	trafficgen -seed 11 -bins 1152 -format binary -scenario flashcrowd -skip 1008 -links flashcrowd.bin
}

# scenario: seed 11 puts the synflood at stream bins 96-103 on
# wash->nycm, and the hybrid must flag the onset and attribute the flow,
# also with refits on (the subspace detector refits every 16 bins from
# the bins triage passed). Without refits the first alarm is the onset,
# so nothing fires before the flood, and the run's alarm count is
# pinned. The flash crowd, the same peak volume toward the same victim
# dispersed over origins on a slow ramp, raises nothing.
scenario() {
	ingestd -history "$in/week11.bin" -stdin -listen "" -detector hybrid < "$in/synflood.bin" > synflood.out
	grep -m 1 '^alarm' synflood.out > first.out
	grep '^alarm bin 96:' first.out | grep -q 'wash->nycm'
	grep '^alarm bin 103:' synflood.out | grep -q 'wash->nycm'
	grep -q '144 bins processed, 12 alarms, 0 refits' synflood.out
	ingestd -history "$in/week11.bin" -stdin -listen "" -detector hybrid -refit 16 -batch 8 < "$in/synflood.bin" > synflood-refit.out
	grep '^alarm bin 96:' synflood-refit.out | grep -q 'wash->nycm'
	grep '^alarm bin 103:' synflood-refit.out | grep -q 'wash->nycm'
	grep -q '144 bins processed, 13 alarms, 9 refits' synflood-refit.out
	ingestd -history "$in/week11.bin" -stdin -listen "" -detector hybrid < "$in/flashcrowd.bin" > flashcrowd.out
	! grep -q '^alarm' flashcrowd.out || exit 1
	grep -q '144 bins processed, 0 alarms' flashcrowd.out
}

# ewma: the spiked trace through the EWMA forecast backend, seeded from
# the CSV week (ingestd sniffs the history's encoding). Stream bins
# count from the first streamed bin, so bin 1090 arrives as 82.
ewma() {
	ingestd -topology abilene -history "$in/week5.csv" -stdin -listen "" -detector ewma < "$in/spike.bin" > ewma.out
	grep -q '^alarm bin 82:' ewma.out
}

# hybrid: the same stream through the hybrid, which must also attribute
# the injected flow (30 = wash->losa): the triage-to-identification
# handoff is the point of the kind.
hybrid() {
	ingestd -topology abilene -history "$in/week5.csv" -stdin -listen "" -detector hybrid < "$in/spike.bin" > hybrid.out
	grep '^alarm bin 82:' hybrid.out | grep -q 'wash->losa'
}

# burst: a 2064-bin stream decoded faster than the shard drains it into
# a 64-bin DropOldest queue. Bins must be shed, and the anomaly in the
# newest bin (3071 - 1008 = 2063) still caught and attributed: dropped
# bins advance the sequence, so the printed bin is the true position.
burst() {
	trafficgen -seed 9 -bins 1008 -links burst-week.csv
	trafficgen -seed 9 -bins 3072 -format binary -skip 1008 -links burst.bin -anomaly "30,3071,9e7"
	ingestd -topology abilene -history burst-week.csv -stdin -listen "" -max-pending 64 -overload dropoldest < burst.bin > burst.out
	grep '^alarm bin 2063:' burst.out | grep -q 'wash->losa'
	grep -Eq '^ingestd: 1 streams, .* dropped [1-9][0-9]* bins' burst.out
}

# binary: the sketch backend seeded from a binary week, fed the
# post-history tail of the same trace cut at a frame boundary, so the
# injected bin 1099 arrives as 91.
binary() {
	{ head -c 12 "$in/full.bin"; tail -c +$((12 + 1008 * frame + 1)) "$in/full.bin"; } > stream.bin
	ingestd -history "$in/week.bin" -stdin -listen "" -detector sketch < stream.bin > binary.out
	grep '^alarm bin 91:' binary.out | grep -q 'wash->wash'
	grep -q 'ingestd: 1 streams, 92 bins processed' binary.out
}

# topology: one synthetic:<pops>:<edges>:<seed> name builds one network
# in the generator and the server whatever the traffic -seed; a width or
# routing mismatch fails the pipe.
topology() {
	trafficgen -topology synthetic:30:45:7 -seed 2 -bins 1008 -format binary -links wide-week.bin
	trafficgen -topology synthetic:30:45:7 -format binary -bins 1100 -skip 1008 -links - |
		ingestd -topology synthetic:30:45:7 -history wide-week.bin -stdin -listen ""
}

# xor_tcp: the same tail as v2 xor batch frames over one TCP connection to
# an ingestd that accepts only that codec. Compression must cost no bin
# and no flow.
xor_tcp() {
	trafficgen -seed 5 -bins 1100 -format binary -batch-frames 64 -codec xor -skip 1008 -links stream-xor.bin -anomaly "24,1099,9e7"
	ingestd -history "$in/week.bin" -listen 127.0.0.1:0 -conns 1 -codec xor -detector sketch > xor.out &
	local pid=$! addr
	addr=$(listening xor.out)
	cat stream-xor.bin > "/dev/tcp/${addr%:*}/${addr##*:}"
	wait "$pid"
	grep -q 'stream done (v2 xor x64), 92 bins enqueued' xor.out
	grep '^alarm bin 91:' xor.out | grep -q 'wash->wash'
	grep -q 'ingestd: 1 streams, 92 bins processed' xor.out
}

# kill_restore: the 92-bin tail split in half at a frame boundary. Run 1
# serves the first 46 bins over TCP with periodic checkpoints, is
# SIGTERMed after one is written, and must drain and write the final
# one. Run 2 resumes from the checkpoint alone (its -history does not
# exist: a warm start reads none) and must flag the anomaly at its true
# offset, bin 91, counted across the restart.
kill_restore() {
	{ head -c 12 "$in/full.bin"; head -c $((12 + 1054 * frame)) "$in/full.bin" | tail -c $((46 * frame)); } > part1.bin
	{ head -c 12 "$in/full.bin"; tail -c +$((12 + 1054 * frame + 1)) "$in/full.bin"; } > part2.bin
	mkdir ckpt
	ingestd -history "$in/week.bin" -listen 127.0.0.1:0 -detector sketch -batch 16 -checkpoint ckpt -checkpoint-every 16 > restore-run1.out &
	local pid=$! addr
	addr=$(listening restore-run1.out)
	cat part1.bin > "/dev/tcp/${addr%:*}/${addr##*:}"
	for _ in $(seq 100); do
		if grep -q 'ingestd: checkpoint written at bin' restore-run1.out; then break; fi
		sleep 0.2
	done
	kill -TERM "$pid"
	wait "$pid"
	grep -q 'ingestd: signal received, draining' restore-run1.out
	grep -q 'ingestd: checkpoint written at bin' restore-run1.out
	grep -q 'ingestd: checkpoint written to ckpt/checkpoint.nams' restore-run1.out
	grep -q 'ingestd: 1 streams, 46 bins processed' restore-run1.out
	ingestd -history no-such-week.bin -stdin -listen "" -detector sketch -batch 16 -checkpoint ckpt < part2.bin > restore-run2.out
	grep -q 'ingestd: sketch model restored from ckpt/checkpoint.nams at bin 46' restore-run2.out
	grep '^alarm bin 91:' restore-run2.out | grep -q 'wash->wash'
	grep -q 'ingestd: 1 streams, 92 bins processed' restore-run2.out
}

# incidents: the synflood's alarmed bins condense to exactly one
# incident on the flood flow with the true start and end bins, raw
# alarms are suppressed, and the flash crowd opens none. Then the stream
# is cut mid-flood at bin 100: run 1 checkpoints the open incident, and
# run 2 resumes it (no second open line) and closes it with the bins an
# uninterrupted run reports.
incidents() {
	ingestd -history "$in/week11.bin" -stdin -listen "" -detector hybrid -incidents < "$in/synflood.bin" > synflood-inc.out
	! grep -q '^alarm bin' synflood-inc.out || exit 1
	test "$(grep -c '^incident #[0-9]* open: flow wash->nycm' synflood-inc.out)" = 1
	grep -q '^incident #0 open: flow wash->nycm, start bin 96,' synflood-inc.out
	grep '^incident #0 closed: flow wash->nycm,' synflood-inc.out | grep -q 'bins 96\.\.103,'
	ingestd -history "$in/week11.bin" -stdin -listen "" -detector hybrid -incidents < "$in/flashcrowd.bin" > flashcrowd-inc.out
	! grep -q '^incident' flashcrowd-inc.out || exit 1
	grep -q 'incidents: 0 opened, 0 closed' flashcrowd-inc.out
	head -c $((12 + 100 * frame)) "$in/synflood.bin" > inc-part1.bin
	{ head -c 12 "$in/synflood.bin"; tail -c +$((12 + 100 * frame + 1)) "$in/synflood.bin"; } > inc-part2.bin
	mkdir inc-ckpt
	ingestd -history "$in/week11.bin" -stdin -listen "" -detector subspace -incidents -checkpoint inc-ckpt < inc-part1.bin > inc-run1.out
	grep -q '^incident #0 open: flow wash->nycm, start bin 96,' inc-run1.out
	! grep -q '^incident #0 closed' inc-run1.out || exit 1
	grep -q 'incidents: 1 opened, 0 closed, 1 still open' inc-run1.out
	ingestd -history "$in/week11.bin" -stdin -listen "" -detector subspace -incidents -checkpoint inc-ckpt < inc-part2.bin > inc-run2.out
	grep -q 'ingestd: incident state restored: 1 open' inc-run2.out
	! grep -q '^incident #0 open' inc-run2.out || exit 1
	grep '^incident #0 closed: flow wash->nycm,' inc-run2.out | grep -q 'bins 96\.\.103,'
}

# metrics: the scan lives only in flow counts, so only the multi-metric
# detector behind -metrics 3 catches it, from bytes, flows and packet
# size column-stacked into one wide binary stream.
metrics() {
	trafficgen -seed 11 -bins 1008 -format binary -metrics -links week11m.bin
	trafficgen -seed 11 -bins 1152 -skip 1008 -format binary -metrics -scenario scan -links scan-m.bin
	ingestd -history week11m.bin -stdin -listen "" -detector multiflow -metrics 3 < scan-m.bin > scan-wire.out
	grep '^alarm bin' scan-wire.out | grep -q 'kscy->atla'
	grep -q '144 bins processed' scan-wire.out
}

for smoke in inputs scenario ewma hybrid burst binary topology xor_tcp kill_restore incidents metrics; do
	run "$smoke"
done
