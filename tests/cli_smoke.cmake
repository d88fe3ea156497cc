# Writes the Figure 1 People table to CSV, mines it with the CLI in each
# output format, and checks a known rule appears.
file(WRITE "${WORK_DIR}/people.csv"
"Age,Married,NumCars\n23,No,1\n25,Yes,1\n29,No,0\n34,Yes,2\n38,Yes,2\n")
foreach(fmt text json csv)
  execute_process(
    COMMAND ${QARM} --input=${WORK_DIR}/people.csv
            --schema=Age:quant,Married:cat,NumCars:quant
            --minsup=0.4 --minconf=0.5 --maxsup=1.0 --intervals=4
            --format=${fmt}
    OUTPUT_VARIABLE out
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "qarm --format=${fmt} exited with ${rc}")
  endif()
  if(NOT out MATCHES "34\\.\\.38")
    message(FATAL_ERROR "expected an Age 34..38 rule in ${fmt} output")
  endif()
endforeach()

# `qarm convert --stats` adds one "# convert:" line on stderr and leaves
# the "# wrote" line and the QBT bytes alone.
set(SCHEMA Age:quant,Married:cat,NumCars:quant)
foreach(variant plain stats)
  set(extra)
  if(variant STREQUAL "stats")
    set(extra --stats)
  endif()
  execute_process(
    COMMAND ${QARM} convert --input=${WORK_DIR}/people.csv --schema=${SCHEMA}
            --output=${WORK_DIR}/people-${variant}.qbt --intervals=4 ${extra}
    ERROR_VARIABLE err_${variant}
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "qarm convert ${extra} exited with ${rc}")
  endif()
endforeach()
if(NOT err_stats MATCHES "# wrote [^\n]*: 5 rows, 1 blocks, [0-9]+ bytes\n")
  message(FATAL_ERROR "convert --stats lost its '# wrote' line: ${err_stats}")
endif()
if(NOT err_stats MATCHES
   "# convert: rows=5 read_seconds=[0-9]+\\.[0-9]+ map_seconds=[0-9]+\\.[0-9]+ write_seconds=[0-9]+\\.[0-9]+ bytes=[0-9]+\n")
  message(FATAL_ERROR "convert --stats printed no '# convert:' line: ${err_stats}")
endif()
if(err_plain MATCHES "# convert:")
  message(FATAL_ERROR "convert without --stats printed stats: ${err_plain}")
endif()
execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files ${WORK_DIR}/people-plain.qbt
          ${WORK_DIR}/people-stats.qbt
  RESULT_VARIABLE differs)
if(differs)
  message(FATAL_ERROR "convert --stats changed the QBT bytes")
endif()

# A directory as the input is an IOError naming the path and the reason.
file(MAKE_DIRECTORY ${WORK_DIR}/people-dir.csv)
execute_process(
  COMMAND ${QARM} convert --input=${WORK_DIR}/people-dir.csv
          --schema=${SCHEMA} --output=${WORK_DIR}/people-dir.qbt
  ERROR_VARIABLE err
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 1 OR NOT err MATCHES
   "IOError: cannot read '[^']*people-dir.csv': Is a directory")
  message(FATAL_ERROR "convert of a directory: exit ${rc}, ${err}")
endif()

# `qarm ... --output-rules=F --stats` adds one "# export:" line on stderr,
# timing the export and counting the bytes of F, and leaves stdout and F
# alone.
foreach(variant plain stats)
  set(extra)
  if(variant STREQUAL "stats")
    set(extra --stats)
  endif()
  execute_process(
    COMMAND ${QARM} --input=${WORK_DIR}/people.csv --schema=${SCHEMA}
            --minsup=0.4 --minconf=0.5 --maxsup=1.0 --intervals=4
            --format=csv --output-rules=${WORK_DIR}/people-${variant}.qrs
            ${extra}
    OUTPUT_FILE ${WORK_DIR}/people-${variant}.out
    ERROR_VARIABLE err_${variant}
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "mine --output-rules (${variant}) exited with ${rc}")
  endif()
endforeach()
file(SIZE ${WORK_DIR}/people-stats.qrs qrs_bytes)
if(NOT err_stats MATCHES "# wrote [^\n]*: ([0-9]+) rules, ${qrs_bytes} bytes\n")
  message(FATAL_ERROR "mine --stats lost its '# wrote' line: ${err_stats}")
endif()
set(wrote_rules ${CMAKE_MATCH_1})
if(NOT err_stats MATCHES
   "# export: rules=${wrote_rules} bytes=${qrs_bytes} seconds=[0-9]+\\.[0-9]+\n")
  message(FATAL_ERROR "mine --stats printed no matching '# export:' line "
                      "(${wrote_rules} rules, ${qrs_bytes} bytes): ${err_stats}")
endif()
if(err_plain MATCHES "# export:")
  message(FATAL_ERROR "mine without --stats printed stats: ${err_plain}")
endif()
foreach(ext out qrs)
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files ${WORK_DIR}/people-plain.${ext}
            ${WORK_DIR}/people-stats.${ext}
    RESULT_VARIABLE differs)
  if(differs)
    message(FATAL_ERROR "mine --stats changed the .${ext} bytes")
  endif()
endforeach()

# A missing input is an IOError naming the path and the reason.
execute_process(
  COMMAND ${QARM} --input=${WORK_DIR}/no-such-people.csv --schema=${SCHEMA}
          --minsup=0.4 --minconf=0.5
  ERROR_VARIABLE err
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 1 OR NOT err MATCHES
   "IOError: cannot open '[^']*no-such-people.csv' for reading: No such file or directory")
  message(FATAL_ERROR "mine of a missing file: exit ${rc}, ${err}")
endif()
