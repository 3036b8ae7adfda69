# Requires the Table 2 rows quoted in a document to match the ones a
# golden pins, cell for cell, so the write-up cannot drift from what
# `svd-bench --suite table2` prints. Whitespace inside each cell is
# collapsed first (the document and the golden pad columns
# differently). Invoke with:
#
#   cmake -DDOC=EXPERIMENTS.md -DGOLDEN=tests/golden/bench_table2.txt \
#         -P DocTableCheck.cmake

set(ROW_REGEX "^\\| (Apache|MySQL|PgSQL) \\((erroneous|bug-free)\\) ")

function(table2_rows FILE OUT)
  file(STRINGS "${FILE}" ROWS REGEX "${ROW_REGEX}")
  set(NORM "")
  foreach(ROW IN LISTS ROWS)
    string(REGEX REPLACE "[ \t]+" " " ROW "${ROW}")
    string(REGEX REPLACE " ?\\| ?" "|" ROW "${ROW}")
    string(STRIP "${ROW}" ROW)
    list(APPEND NORM "${ROW}")
  endforeach()
  list(LENGTH NORM N)
  if(NOT N EQUAL 5)
    message(FATAL_ERROR "${FILE}: expected 5 Table 2 rows, found ${N}")
  endif()
  set(${OUT} "${NORM}" PARENT_SCOPE)
endfunction()

table2_rows("${DOC}" DOC_ROWS)
table2_rows("${GOLDEN}" GOLDEN_ROWS)
foreach(I RANGE 4)
  list(GET DOC_ROWS ${I} D)
  list(GET GOLDEN_ROWS ${I} G)
  if(NOT D STREQUAL G)
    message(FATAL_ERROR "Table 2 row ${I} of ${DOC} drifted from ${GOLDEN}:\n"
                        "  doc:    ${D}\n  golden: ${G}")
  endif()
endforeach()
