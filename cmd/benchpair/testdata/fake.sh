#!/bin/sh
# Stands in for the declared benchmark command. It appends its call to
# ../calls.log, prints some chatter and then the canned last line for
# (workload, trace, seed), and exits with the canned status.
while [ $# -gt 0 ]; do
	case $1 in
	--flavour) f=$2 ;;
	--workload) w=$2 ;;
	--seed) s=$2 ;;
	--seconds) n=$2 ;;
	--trace) t=$2 ;;
	esac
	shift 2
done
echo "$(basename "$PWD") $f $w seed=$s seconds=$n trace=$t" >>../calls.log
echo "fakebench workload=$w seed=$s"
echo "op_ms 12.5 ms"
cat "canned/$w.$t.$s" 2>/dev/null
exit "$(cat "canned/$w.$t.$s.exit" 2>/dev/null || echo 0)"
