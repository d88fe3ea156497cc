# Golden-byte check of every rule renderer. qarm_golden_fixture writes a
# QBT table, a handmade QRS rule set and three uncached served responses
# (see tests/golden/golden_fixture.cc); this script then mines the table
# with the CLI in every output format (csv/json/text, each with and
# without --interesting-only, plus --itemsets), dumps the rule set as
# json and text, and compares every output byte for byte with the files
# in tests/golden/.
#
# The same mine with --output-rules=mined.qrs pins the rule-set file the
# miner exports, lift included: the SHA-256 of mined.qrs is compared with
# mined-qrs.sha256 and its `rules dump --format=json` with mined-dump.json.
#
# The JSON mine output embeds run statistics (timings, the detected ISA),
# so its "stats" object is replaced by a placeholder before comparing.
#
# Run with -DUPDATE=ON to rewrite the goldens from the current build
# instead of comparing.
set(W ${WORK_DIR}/render_golden)
file(REMOVE_RECURSE ${W})
file(MAKE_DIRECTORY ${W})

execute_process(COMMAND ${FIXTURE} ${W} RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "qarm_golden_fixture exited with ${rc}")
endif()

set(MINE --input-qbt=${W}/fixture.qbt --minsup=0.15 --minconf=0.9
    --maxsup=0.5 --interest=1.1 --threads=1)

# Runs the CLI with the given arguments from ${W}; stdout lands in
# ${W}/${name}. Fails unless the exit code is 0.
function(run_cli name)
  execute_process(
    COMMAND ${QARM} ${ARGN}
    WORKING_DIRECTORY ${W}
    OUTPUT_FILE ${W}/${name}
    ERROR_VARIABLE err
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "qarm ${ARGN} exited with ${rc}: ${err}")
  endif()
endfunction()

run_cli(cli-csv.txt ${MINE} --format=csv)
run_cli(cli-csv-interesting.txt ${MINE} --format=csv --interesting-only)
run_cli(cli-json.txt ${MINE} --format=json)
run_cli(cli-json-interesting.txt ${MINE} --format=json --interesting-only)
run_cli(cli-text.txt ${MINE} --format=text)
run_cli(cli-text-interesting.txt ${MINE} --format=text --interesting-only)
run_cli(cli-text-itemsets.txt ${MINE} --format=text --itemsets)
run_cli(dump.json rules dump fixture.qrs --format=json)
run_cli(dump.txt rules dump fixture.qrs)
run_cli(cli-csv-mined.txt ${MINE} --format=csv --output-rules=mined.qrs)
run_cli(mined-dump.json rules dump mined.qrs --format=json)
execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files ${W}/cli-csv-mined.txt
          ${W}/cli-csv.txt
  RESULT_VARIABLE differs)
if(differs)
  message(FATAL_ERROR "--output-rules changed the CSV on stdout")
endif()
file(SHA256 ${W}/mined.qrs mined_digest)
file(WRITE ${W}/mined-qrs.sha256 "${mined_digest}\n")

# --stats adds one "# render:" line on stderr, counting the bytes written
# to stdout, and leaves stdout alone.
execute_process(
  COMMAND ${QARM} ${MINE} --format=csv --stats
  OUTPUT_FILE ${W}/cli-csv-stats.txt
  ERROR_VARIABLE stats_err
  RESULT_VARIABLE rc)
execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files ${W}/cli-csv-stats.txt
          ${W}/cli-csv.txt
  RESULT_VARIABLE differs)
file(SIZE ${W}/cli-csv.txt csv_bytes)
if(NOT rc EQUAL 0 OR differs OR NOT stats_err MATCHES
   "# render: format=csv rules=[0-9]+ bytes=${csv_bytes} seconds=[0-9.]+\n")
  message(FATAL_ERROR
    "--stats changed stdout or printed no matching render line "
    "(${csv_bytes} bytes expected):\n${stats_err}")
endif()

foreach(name cli-json.txt cli-json-interesting.txt)
  file(READ ${W}/${name} json)
  string(REGEX REPLACE "^{\"stats\":{.*},\"rules\":\\["
         "{\"stats\":STATS,\"rules\":[" json "${json}")
  if(NOT json MATCHES "^{\"stats\":STATS,\"rules\":\\[")
    message(FATAL_ERROR "${name}: no stats object to normalize")
  endif()
  file(WRITE ${W}/${name} "${json}")
endforeach()

set(GOLDENS
  cli-csv.txt cli-csv-interesting.txt cli-json.txt cli-json-interesting.txt
  cli-text.txt cli-text-interesting.txt cli-text-itemsets.txt
  dump.json dump.txt mined-qrs.sha256 mined-dump.json serve-match.json
  serve-topk.json serve-rules.json)
foreach(name ${GOLDENS})
  if(UPDATE)
    file(COPY ${W}/${name} DESTINATION ${GOLDEN_DIR})
    continue()
  endif()
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files ${W}/${name}
            ${GOLDEN_DIR}/${name}
    RESULT_VARIABLE differs)
  if(differs)
    message(FATAL_ERROR
      "${name} differs from tests/golden/${name}; see ${W}/${name}")
  endif()
endforeach()
