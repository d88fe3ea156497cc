# Golden bytes of `qarm convert` and `qarm append`: converts
# tests/golden/convert.csv (a partitioned int column, a double column, an
# unpartitioned column, a categorical column with a quoted label, NULL
# cells) under each partitioning method, appends
# tests/golden/convert-delta.csv to the equi-depth file, and compares the
# SHA-256 of every QBT file with tests/golden/convert-<name>.sha256.
#
# Run with -DUPDATE=ON to rewrite the digests from the current build
# instead of comparing.
set(W ${WORK_DIR}/convert_golden)
file(REMOVE_RECURSE ${W})
file(MAKE_DIRECTORY ${W})

set(SCHEMA Age:quant,Score:quant:double,Kids:quant,City:cat,Income:quant)

# Runs the CLI with the given arguments; fails unless the exit code is 0.
function(run_cli)
  execute_process(COMMAND ${QARM} ${ARGN}
                  OUTPUT_QUIET ERROR_VARIABLE err RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "qarm ${ARGN} exited with ${rc}: ${err}")
  endif()
endfunction()

# Compares (or with UPDATE rewrites) the digest of ${W}/${name}.qbt.
function(check_digest name)
  file(SHA256 ${W}/${name}.qbt digest)
  set(golden ${GOLDEN_DIR}/convert-${name}.sha256)
  if(UPDATE)
    file(WRITE ${golden} "${digest}\n")
    return()
  endif()
  file(READ ${golden} expected)
  string(STRIP "${expected}" expected)
  if(NOT digest STREQUAL expected)
    message(FATAL_ERROR
      "${name}.qbt differs from its golden digest: ${digest} != ${expected}")
  endif()
endfunction()

foreach(method depth width kmeans)
  run_cli(convert --input=${GOLDEN_DIR}/convert.csv --schema=${SCHEMA}
          --output=${W}/${method}.qbt --method=${method} --intervals=6
          --minsup=0.1 --block-rows=16)
  check_digest(${method})
endforeach()

file(COPY_FILE ${W}/depth.qbt ${W}/append.qbt)
run_cli(append --input=${GOLDEN_DIR}/convert-delta.csv --schema=${SCHEMA}
        --output=${W}/append.qbt)
check_digest(append)
