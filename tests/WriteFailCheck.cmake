# A report that cannot be written in full must fail the run: writing
# svd-serve's --report to /dev/full (every write fails with ENOSPC once
# the buffer is flushed) must exit 2 with a diagnostic, exactly as an
# unopenable path does. Invoke with:
#
#   cmake -DSERVE=<svd-serve exe> -P WriteFailCheck.cmake

execute_process(COMMAND "${SERVE}" --suite fig1 --seeds 1 --report /dev/full
                OUTPUT_QUIET
                ERROR_VARIABLE ERR
                RESULT_VARIABLE RC)
if(NOT RC EQUAL 2)
  message(FATAL_ERROR "svd-serve exited '${RC}', expected 2:\n${ERR}")
endif()
if(NOT ERR MATCHES "cannot write '/dev/full'")
  message(FATAL_ERROR "missing write diagnostic:\n${ERR}")
endif()
