# End-to-end serving smoke: generate the financial dataset, mine it with
# --output-rules, inspect the QRS file with `qarm rules dump`, start
# `qarm serve` on a random (ephemeral) port, query /match /topk /rules
# /statz over real HTTP via the qarm_http_get helper, then stop the
# server with SIGTERM and require a clean shutdown line in its log. A
# second server is signalled the instant its port file appears and must
# still exit 0 with the clean shutdown line.
set(SCHEMA "monthly_income:quant,credit_limit:quant,current_balance:quant,ytd_balance:quant,ytd_interest:quant:double,employee_category:cat,marital_status:cat")
set(DATA ${WORK_DIR}/serve_fin.csv)
set(RULES ${WORK_DIR}/serve_fin.qrs)
set(PORT_FILE ${WORK_DIR}/serve_port.txt)
set(PID_FILE ${WORK_DIR}/serve_pid.txt)
set(LOG_FILE ${WORK_DIR}/serve_smoke.log)

file(REMOVE ${PORT_FILE} ${PID_FILE} ${LOG_FILE})

execute_process(
  COMMAND ${QARM} gen --output=${DATA} --records=2000 --seed=17
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "qarm gen exited with ${rc}")
endif()

execute_process(
  COMMAND ${QARM} --input=${DATA} --schema=${SCHEMA}
          --minsup=0.3 --minconf=0.6 --k=3.0 --interest=1.1
          --output-rules=${RULES}
  OUTPUT_QUIET ERROR_QUIET
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "qarm mine --output-rules exited with ${rc}")
endif()
if(NOT EXISTS ${RULES})
  message(FATAL_ERROR "mine did not write ${RULES}")
endif()

# The dump subcommand shares the server's reader; its text output must
# list at least one rule, and the JSON form must carry the counters.
execute_process(
  COMMAND ${QARM} rules dump ${RULES}
  OUTPUT_VARIABLE dump_out
  ERROR_VARIABLE dump_err
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "qarm rules dump exited with ${rc}: ${dump_err}")
endif()
if(NOT dump_out MATCHES "=>")
  message(FATAL_ERROR "rules dump printed no rules:\n${dump_out}")
endif()
execute_process(
  COMMAND ${QARM} rules dump ${RULES} --format=json --min-conf=0.8
  OUTPUT_VARIABLE dump_json
  ERROR_QUIET
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0 OR NOT dump_json MATCHES "\"num_rules\":")
  message(FATAL_ERROR "rules dump --format=json failed (rc ${rc})")
endif()

# The JSON dump echoes the rule file's path: a path holding a quote and a
# backslash must still come back as valid JSON carrying the path intact.
# (cmake's own file commands would read the backslash as a separator.)
set(WEIRD_DIR "${WORK_DIR}/we\"ird\\dir")
set(WEIRD_RULES "${WEIRD_DIR}/r.qrs")
execute_process(
  COMMAND sh -c "mkdir -p \"$1\" && cp \"$2\" \"$1/r.qrs\"" sh
          "${WEIRD_DIR}" "${RULES}"
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "could not copy ${RULES} to ${WEIRD_RULES}")
endif()
execute_process(
  COMMAND ${QARM} rules dump "${WEIRD_RULES}" --format=json
  OUTPUT_VARIABLE weird_json
  ERROR_VARIABLE weird_err
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "rules dump of ${WEIRD_RULES} exited ${rc}: ${weird_err}")
endif()
string(JSON weird_file ERROR_VARIABLE json_error GET "${weird_json}" file)
if(json_error OR NOT weird_file STREQUAL "${WEIRD_RULES}")
  message(FATAL_ERROR
    "rules dump of ${WEIRD_RULES} is not valid JSON naming the file "
    "(${json_error}; file='${weird_file}'):\n${weird_json}")
endif()

# Launch the server detached (it self-stops after 60s as a backstop).
execute_process(
  COMMAND sh -c "'${QARM}' serve --rules='${RULES}' --port=0 \
--port-file='${PORT_FILE}' --serve-seconds=60 --serve-threads=2 \
--cache-mb=8 > '${LOG_FILE}' 2>&1 & echo $! > '${PID_FILE}'"
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "failed to launch qarm serve (rc ${rc})")
endif()

# Wait (up to ~10s) for the atomically-written port file.
set(port "")
foreach(i RANGE 100)
  if(EXISTS ${PORT_FILE})
    file(READ ${PORT_FILE} port)
    string(STRIP "${port}" port)
    break()
  endif()
  execute_process(COMMAND ${CMAKE_COMMAND} -E sleep 0.1)
endforeach()
if(port STREQUAL "")
  file(READ ${LOG_FILE} serve_log)
  message(FATAL_ERROR "server never wrote its port file; log:\n${serve_log}")
endif()

function(http_check target pattern out_var)
  execute_process(
    COMMAND ${HTTP_GET} 127.0.0.1 ${port} ${target}
    OUTPUT_VARIABLE body
    ERROR_VARIABLE err
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "GET ${target} failed (rc ${rc}): ${err}")
  endif()
  if(NOT body MATCHES "${pattern}")
    message(FATAL_ERROR "GET ${target}: expected '${pattern}' in:\n${body}")
  endif()
  set(${out_var} "${body}" PARENT_SCOPE)
endfunction()

http_check("/healthz" "\"status\":\"ok\"" healthz)
http_check("/match?ytd_balance=500&ytd_interest=50&marital_status=single"
           "\"count\":" match_body)
http_check("/topk?metric=confidence&k=3" "\"rules\":\\[" topk_body)
http_check("/rules?limit=2" "\"total\":" rules_body)
# Repeat one query so /statz shows cache activity, then check counters.
http_check("/match?ytd_balance=500&ytd_interest=50&marital_status=single"
           "\"count\":" match_again)
if(NOT match_again STREQUAL match_body)
  message(FATAL_ERROR "cached /match response differs from the first")
endif()
http_check("/statz" "\"qps\":" statz_body)
if(NOT statz_body MATCHES "\"match\":2")
  message(FATAL_ERROR "/statz did not count both /match requests:\n${statz_body}")
endif()
if(NOT statz_body MATCHES "\"hits\":1")
  message(FATAL_ERROR "/statz shows no cache hit for the repeat:\n${statz_body}")
endif()
if(NOT statz_body MATCHES "\"index_bytes\":")
  message(FATAL_ERROR "/statz missing index stats:\n${statz_body}")
endif()

# Graceful shutdown: SIGTERM, then wait for the process to exit and the
# log to confirm.
execute_process(COMMAND sh -c "kill -TERM $(cat '${PID_FILE}')"
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "could not signal the server (rc ${rc})")
endif()
set(stopped FALSE)
foreach(i RANGE 100)
  execute_process(COMMAND sh -c "kill -0 $(cat '${PID_FILE}') 2>/dev/null"
    RESULT_VARIABLE alive)
  if(NOT alive EQUAL 0)
    set(stopped TRUE)
    break()
  endif()
  execute_process(COMMAND ${CMAKE_COMMAND} -E sleep 0.1)
endforeach()
if(NOT stopped)
  execute_process(COMMAND sh -c "kill -KILL $(cat '${PID_FILE}')")
  message(FATAL_ERROR "server did not exit within 10s of SIGTERM")
endif()
file(READ ${LOG_FILE} serve_log)
if(NOT serve_log MATCHES "shut down cleanly")
  message(FATAL_ERROR "server log missing clean-shutdown line:\n${serve_log}")
endif()

# Signal race: SIGTERM the instant --port-file appears. The handlers are
# installed before the file is published, so even this earliest signal
# must end in exit 0 and the clean-shutdown line, never the default action.
set(RACE_PORT ${WORK_DIR}/serve_race_port.txt)
set(RACE_PID ${WORK_DIR}/serve_race_pid.txt)
set(RACE_RC ${WORK_DIR}/serve_race_rc.txt)
set(RACE_LOG ${WORK_DIR}/serve_race.log)
file(REMOVE ${RACE_PORT} ${RACE_PID} ${RACE_RC} ${RACE_LOG})
execute_process(
  COMMAND sh -c "( '${QARM}' serve --rules='${RULES}' --port=0 \
--port-file='${RACE_PORT}' --serve-seconds=60 > '${RACE_LOG}' 2>&1 & \
echo $! > '${RACE_PID}'; wait $!; echo $? > '${RACE_RC}' ) \
> /dev/null 2>&1 &"
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "failed to launch the racing qarm serve (rc ${rc})")
endif()
# Spin (no sleep) until both files exist, then signal at once.
execute_process(
  COMMAND sh -c "i=0; while [ ! -s '${RACE_PORT}' ] || \
[ ! -s '${RACE_PID}' ]; do i=$((i+1)); \
if [ $i -gt 5000000 ]; then exit 1; fi; done; \
kill -TERM $(cat '${RACE_PID}')"
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "racing server never published its port file")
endif()
set(race_rc "")
foreach(i RANGE 100)
  if(EXISTS ${RACE_RC})
    file(READ ${RACE_RC} race_rc)
    string(STRIP "${race_rc}" race_rc)
    if(NOT race_rc STREQUAL "")
      break()
    endif()
  endif()
  execute_process(COMMAND ${CMAKE_COMMAND} -E sleep 0.1)
endforeach()
file(READ ${RACE_LOG} race_log)
if(NOT race_rc STREQUAL "0")
  execute_process(COMMAND sh -c "kill -KILL $(cat '${RACE_PID}') 2>/dev/null")
  message(FATAL_ERROR
    "server signalled as its port file appeared exited '${race_rc}', not 0; "
    "log:\n${race_log}")
endif()
if(NOT race_log MATCHES "shut down cleanly")
  message(FATAL_ERROR
    "server signalled as its port file appeared logged no clean shutdown:\n"
    "${race_log}")
endif()
