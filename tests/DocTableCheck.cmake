# Requires the table rows quoted in a document to match the ones a
# golden pins, cell for cell, so the write-up cannot drift from what
# `svd-bench` prints. ROW_REGEX selects the rows and ROW_COUNT is how
# many each file must hold; both default to Table 2's five rows
# (`svd-bench --suite table2`). Whitespace inside each cell is collapsed
# first (the document and the golden pad columns differently). Invoke
# with:
#
#   cmake -DDOC=EXPERIMENTS.md -DGOLDEN=tests/golden/bench_table2.txt \
#         [-DROW_REGEX=REGEX -DROW_COUNT=N] -P DocTableCheck.cmake

if(NOT DEFINED ROW_REGEX)
  set(ROW_REGEX "^\\| (Apache|MySQL|PgSQL) \\((erroneous|bug-free)\\) ")
endif()
if(NOT DEFINED ROW_COUNT)
  set(ROW_COUNT 5)
endif()

function(table_rows FILE OUT)
  file(STRINGS "${FILE}" ROWS REGEX "${ROW_REGEX}")
  set(NORM "")
  foreach(ROW IN LISTS ROWS)
    string(REGEX REPLACE "[ \t]+" " " ROW "${ROW}")
    string(REGEX REPLACE " ?\\| ?" "|" ROW "${ROW}")
    string(STRIP "${ROW}" ROW)
    list(APPEND NORM "${ROW}")
  endforeach()
  list(LENGTH NORM N)
  if(NOT N EQUAL ROW_COUNT)
    message(FATAL_ERROR "${FILE}: expected ${ROW_COUNT} rows matching "
                        "'${ROW_REGEX}', found ${N}")
  endif()
  set(${OUT} "${NORM}" PARENT_SCOPE)
endfunction()

table_rows("${DOC}" DOC_ROWS)
table_rows("${GOLDEN}" GOLDEN_ROWS)
math(EXPR LAST "${ROW_COUNT} - 1")
foreach(I RANGE ${LAST})
  list(GET DOC_ROWS ${I} D)
  list(GET GOLDEN_ROWS ${I} G)
  if(NOT D STREQUAL G)
    message(FATAL_ERROR "row ${I} of ${DOC} drifted from ${GOLDEN}:\n"
                        "  doc:    ${D}\n  golden: ${G}")
  endif()
endforeach()
